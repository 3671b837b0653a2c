package groupranking

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"groupranking/internal/core"
	"groupranking/internal/journal"
	"groupranking/internal/transport"
)

// The distributed deployment entry points: one process per party of the
// complete three-phase framework over a real TCP mesh. addrs lists
// every party's listen address with the initiator at addrs[0] and
// participant j at addrs[j]; each process listens on its own slot and
// dials the rest (a full mesh of wirecodec frames). Before any crypto is spent the
// parties run a session-establishment round confirming they agree on
// the group, bit widths, k and sorter — a misconfigured party surfaces
// as a typed *AbortError with cause ErrSessionMismatch, not as garbage.
//
// All parties must be started with identical Options (that is what the
// handshake verifies). Each runs core.RunParty, the runner under Rank,
// so a seed-fixed distributed run produces the same Ranks and
// Submissions as Rank with that seed; an empty seed is the journal's
// (with Recovery) or drawn locally, and never leaves the process.

// InitiatorResult is what RankInitiatorParty learns: the framework's
// initiator-side outcome plus this endpoint's transport statistics.
type InitiatorResult struct {
	// Submissions are the top-k disclosures received, in claimed-rank
	// order, with the initiator's recomputed gains.
	Submissions []Submission
	// Suspicious lists participants whose claimed rank contradicts the
	// recomputed gain (over-claim detection).
	Suspicious []int
	// BytesOnWire counts the bytes this endpoint sent (a distributed
	// party cannot see the whole mesh's traffic).
	BytesOnWire int64
	// Rounds is the number of distinct communication rounds this
	// endpoint took part in.
	Rounds int
	// TraceID is the run-level trace identifier the session round
	// agreed on; every span this party exported carries it.
	TraceID string
}

// ParticipantResult is what RankParticipantParty learns: its own rank
// — nothing about anyone else's — plus this endpoint's transport
// statistics.
type ParticipantResult struct {
	// Rank is this participant's rank (1 = best). If Rank ≤ the agreed
	// k, this party submitted its profile to the initiator.
	Rank int
	// BytesOnWire counts the bytes this endpoint sent.
	BytesOnWire int64
	// Rounds is the number of distinct communication rounds this
	// endpoint took part in.
	Rounds int
	// TraceID is the run-level trace identifier the session round
	// agreed on; every span this party exported carries it.
	TraceID string
}

// RankInitiatorParty runs the initiator's side of the full framework
// over real TCP: it answers every participant's masked dot-product flow
// with the private criterion, sits out the comparison phase, and
// collects the top-k submissions. q and the addressing must match every
// participant's; criterion stays private to this process.
//
// opts.Timeout (default 2 minutes) composes with ctx — whichever
// deadline expires first wins — and also bounds each blocking receive
// on the TCP mesh.
func RankInitiatorParty(ctx context.Context, q *Questionnaire, criterion Criterion, addrs []string, opts Options) (*InitiatorResult, error) {
	out, stats, err := runRankParty(ctx, q, addrs, opts, core.Role{Me: 0, Questionnaire: q, Criterion: criterion})
	if err != nil {
		return nil, err
	}
	return &InitiatorResult{Submissions: out.Submissions, Suspicious: out.Suspicious,
		BytesOnWire: stats.TotalBytes(), Rounds: stats.DistinctRounds, TraceID: out.TraceID}, nil
}

// RankParticipantParty runs participant me's side (1 ≤ me ≤ n, with
// n = len(addrs)−1) of the full framework over real TCP: the masked
// dot-product gain computation with the initiator, the
// identity-unlinkable comparison among the participants, and — when
// ranked in the agreed top k — the profile submission. profile stays
// private to this process; the returned rank is all this party learns.
//
// opts.Timeout (default 2 minutes) composes with ctx — whichever
// deadline expires first wins — and also bounds each blocking receive
// on the TCP mesh.
func RankParticipantParty(ctx context.Context, q *Questionnaire, addrs []string, me int, profile Profile, opts Options) (*ParticipantResult, error) {
	if me < 1 || me >= len(addrs) {
		return nil, fmt.Errorf("groupranking: participant index %d outside [1, %d] (index 0 is the initiator)", me, len(addrs)-1)
	}
	out, stats, err := runRankParty(ctx, q, addrs, opts, core.Role{Me: me, Questionnaire: q, Profile: profile})
	if err != nil {
		return nil, err
	}
	return &ParticipantResult{Rank: out.Participant.Rank,
		BytesOnWire: stats.TotalBytes(), Rounds: stats.DistinctRounds, TraceID: out.TraceID}, nil
}

// sessionID derives the recovery session's identity from everything
// the parties must agree on — the address list and the pinned protocol
// parameters (the same facts the session-establishment round checks) —
// but not the seeds, which are per-party secrets. Same flags ⇒ same ID,
// so a restarted party finds its own journal; changed flags ⇒ a
// different ID, so a stale journal can never leak into a new session.
func sessionID(params core.Params, addrs []string) string {
	h := sha256.New()
	fmt.Fprintf(h, "groupranking-session-v1|%s|n=%d m=%d t=%d d1=%d d2=%d h=%d k=%d|%s|%d|proofs=%t dec=%t",
		strings.Join(addrs, ","),
		params.N, params.M, params.T, params.D1, params.D2, params.H, params.K,
		params.Group.Name(), params.Sorter, !params.SkipProofs, params.ProveDecryption)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// runRankParty resolves the framework's side of both party entry
// points — the parameters a mesh of len(addrs) endpoints (initiator + n
// participants) agrees on and, with Options.Recovery, the session ID —
// and runs core.RunParty, session round first, on the TCP-party step.
func runRankParty(ctx context.Context, q *Questionnaire, addrs []string, o Options, role core.Role) (out core.Outcome, stats transport.Stats, err error) {
	if len(addrs) < 3 {
		return out, stats, fmt.Errorf("groupranking: need the initiator plus at least two participants, got %d addresses", len(addrs))
	}
	params, err := o.params(q, len(addrs)-1)
	if err != nil {
		return out, stats, err
	}
	var sid string
	if o.Recovery != nil {
		sid = sessionID(params, addrs)
	}
	stats, err = runTCPParty(ctx, addrs, role.Me, o, sid, func(ctx context.Context, net transport.Net, seed string) (err error) {
		// The session round doubles as trace-ID agreement: party 0's
		// proposal wins, and the agreed ID stamps every span this party
		// exports.
		out, err = core.RunParty(ctx, params, role, seed, net, o.Observer.SetTraceID)
		return err
	})
	return out, stats, err
}

// runTCPParty is the one TCP-party step under RankInitiatorParty,
// RankParticipantParty and UnlinkableSortParty: the seed by the
// cross-process rule (journal.OpenSession, which with o.Recovery also
// opens the journal of session sid), the mesh endpoint me, fail-fast or
// recovering, and run under the run context (o.Timeout defaults to 2
// minutes) over the fault-wrapped endpoint; then drain and stats. The
// Observer's metric store, when there is one, takes the mux's, the
// journal's and /healthz's metrics.
func runTCPParty(ctx context.Context, addrs []string, me int, o Options, sid string, run func(ctx context.Context, net transport.Net, seed string) error) (transport.Stats, error) {
	o.Timeout = cmp.Or(o.Timeout, core.DefaultTimeout)
	metrics := o.Observer.Metrics()
	mo := transport.MuxOptions{Telemetry: metrics}
	var dir string
	if o.Recovery != nil {
		if dir = o.Recovery.Dir; dir == "" {
			return transport.Stats{}, fmt.Errorf("groupranking: Recovery.Dir must name a journal directory")
		}
	}
	sj, seed, err := journal.OpenSession(dir, sid, me, o.Seed, metrics)
	if err != nil {
		return transport.Stats{}, err
	}
	var j transport.Journaler
	if sj != nil {
		defer sj.Close()
		j = sj
		mo.Recovery = &transport.MuxRecovery{Epoch: sj.Epoch(), Grace: o.Recovery.Grace}
	}
	fab, err := transport.OpenTCPFabric(addrs, me, o.Timeout, mo, sid, j)
	if err != nil {
		return transport.Stats{}, err
	}
	metrics.SetHealthSource(fab)
	defer fab.Close()
	ctx, cancel := runContext(ctx, o.Observer, o.Timeout)
	defer cancel()
	if err := run(ctx, o.withFaults(fab), seed); err != nil {
		return transport.Stats{}, err
	}
	// A crashed peer may still need what this party sent: a recovering
	// fabric serves retransmissions until every peer holds everything or
	// the blame window closes (at once when fail-fast or all finished).
	fab.Drain(0)
	return fab.Stats(), nil
}
