package groupranking

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"

	"groupranking/internal/core"
	"groupranking/internal/fixedbig"
	"groupranking/internal/group"
	"groupranking/internal/journal"
	"groupranking/internal/obsv"
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
// handshake verifies). A non-empty Options.Seed makes the whole run
// deterministic — each party derives its RNG exactly as the in-process
// Rank harness does, so a seed-fixed distributed run produces the same
// Ranks and Submissions as Rank with that seed; an empty seed draws
// fresh local randomness per process.

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
	params, o, err := rankPartyParams(q, addrs, opts)
	if err != nil {
		return nil, err
	}
	rec, err := setupRecovery(params, &o, addrs, 0, opts.Seed)
	if err != nil {
		return nil, err
	}
	rng := partyRNG(o.Seed, core.InitiatorSeed(o.Seed))
	subs := []Submission(nil)
	var flagged []int
	res, err := runRankParty(ctx, params, o, addrs, 0, rec, func(ctx context.Context, net transport.Net) error {
		subs, flagged, err = core.RunInitiatorCtx(ctx, params, q, criterion, net, rng)
		return err
	})
	if err != nil {
		return nil, err
	}
	res2 := &InitiatorResult{Submissions: subs, Suspicious: flagged, BytesOnWire: res.BytesOnWire, Rounds: res.Rounds, TraceID: res.TraceID}
	return res2, nil
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
	params, o, err := rankPartyParams(q, addrs, opts)
	if err != nil {
		return nil, err
	}
	if me < 1 || me > params.N {
		return nil, fmt.Errorf("groupranking: participant index %d outside [1, %d] (index 0 is the initiator)", me, params.N)
	}
	rec, err := setupRecovery(params, &o, addrs, me, opts.Seed)
	if err != nil {
		return nil, err
	}
	rng := partyRNG(o.Seed, core.ParticipantSeed(o.Seed, me))
	var out core.ParticipantOutput
	res, err := runRankParty(ctx, params, o, addrs, me, rec, func(ctx context.Context, net transport.Net) error {
		out, err = core.RunParticipantCtx(ctx, params, me, q, profile, net, rng)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &ParticipantResult{Rank: out.Rank, BytesOnWire: res.BytesOnWire, Rounds: res.Rounds, TraceID: res.TraceID}, nil
}

// rankPartyParams resolves the shared options into the framework
// parameters a mesh of len(addrs) endpoints (initiator + n
// participants) agrees on.
func rankPartyParams(q *Questionnaire, addrs []string, opts Options) (core.Params, Options, error) {
	if q == nil {
		return core.Params{}, opts, fmt.Errorf("groupranking: missing questionnaire")
	}
	n := len(addrs) - 1
	if n < 2 {
		return core.Params{}, opts, fmt.Errorf("groupranking: need the initiator plus at least two participants, got %d addresses", len(addrs))
	}
	o, err := opts.withDefaults(n)
	if err != nil {
		return core.Params{}, o, err
	}
	if o.Timeout <= 0 {
		o.Timeout = defaultPartyTimeout
	}
	g, err := group.ByName(o.GroupName)
	if err != nil {
		return core.Params{}, o, err
	}
	params := core.Params{
		N: n, M: q.M(), T: q.T(),
		D1: o.D1, D2: o.D2, H: o.H, K: o.K,
		Group: g, Sorter: o.Sorter, SkipProofs: o.SkipProofs,
		ProveDecryption: o.ProveDecryption, Workers: o.Workers,
		WireCodec: o.WireCodec,
	}
	if err := params.Validate(); err != nil {
		return params, o, err
	}
	return params, o, nil
}

// partyRNG picks this party's randomness source: the in-process
// harness's seed derivation when a seed is set (so seed-fixed
// distributed runs match Rank exactly), crypto/rand otherwise.
func partyRNG(seed, derived string) io.Reader {
	if seed == "" {
		return rand.Reader
	}
	return fixedbig.NewDRBG(derived)
}

// recoverySession is one party's open crash-recovery state: its
// durable journal, the derived session identity, and the epoch this
// process runs as.
type recoverySession struct {
	journal   *journal.Journal
	sessionID string
	epoch     int
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

// setupRecovery opens this party's journal when Options.Recovery is
// set: it pins the session fingerprint (so mismatched flags fail
// loudly), resolves the seed against the journal (so a restart with an
// empty -seed still re-derives the first life's randomness — o.Seed is
// updated in place), and begins a new epoch. Returns nil with recovery
// disabled.
func setupRecovery(params core.Params, o *Options, addrs []string, me int, rawSeed string) (*recoverySession, error) {
	if o.Recovery == nil {
		return nil, nil
	}
	if o.Recovery.Dir == "" {
		return nil, fmt.Errorf("groupranking: Recovery.Dir must name a journal directory")
	}
	sid := sessionID(params, addrs)
	j, err := journal.Open(journal.SessionPath(o.Recovery.Dir, sid, me))
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*recoverySession, error) {
		j.Close()
		return nil, err
	}
	if err := j.PinSession([]byte(fmt.Sprintf("%s|party=%d", sid, me))); err != nil {
		return fail(err)
	}
	seed, err := resolveRecoverySeed(j, rawSeed, o.Seed)
	if err != nil {
		return fail(err)
	}
	o.Seed = seed
	epoch, err := j.BeginEpoch()
	if err != nil {
		return fail(err)
	}
	return &recoverySession{journal: j, sessionID: sid, epoch: epoch}, nil
}

// resolveRecoverySeed reconciles the operator's explicit seed (raw, as
// passed in Options before defaulting), the freshly drawn one (drawn),
// and the journal: an explicit seed must match the journal; with no
// explicit seed a restart inherits the journaled seed and a first run
// journals the drawn one.
func resolveRecoverySeed(j *journal.Journal, raw, drawn string) (string, error) {
	if raw == "" {
		if s, err := j.SessionSeed(""); err == nil {
			return s, nil // restart: the journaled seed wins
		}
		return j.SessionSeed(drawn) // first run: journal the drawn seed
	}
	return j.SessionSeed(raw)
}

// partyFabric is what the harness needs from either transport: the Net
// itself plus endpoint statistics and teardown.
type partyFabric interface {
	transport.Net
	Stats() transport.Stats
	Close()
}

// runRankParty is the shared deployment harness: it joins the TCP mesh
// as endpoint me (the plain fail-fast fabric, or the reconnecting
// journal-backed one when recovery is on), threads observability and
// fault injection through, runs the session-establishment handshake and
// then this party's role, and reports the endpoint's transport
// statistics.
func runRankParty(ctx context.Context, params core.Params, o Options, addrs []string, me int, rec *recoverySession, role func(context.Context, transport.Net) error) (*ParticipantResult, error) {
	var fab partyFabric
	if rec != nil {
		defer rec.journal.Close()
		rec.journal.SetTelemetry(o.Telemetry)
		rfab, err := transport.NewRecoveringTCPFabric(addrs, me, o.Timeout, transport.RecoverOptions{
			SessionID: rec.sessionID,
			Epoch:     rec.epoch,
			Journal:   rec.journal,
			Grace:     o.Recovery.Grace,
			Telemetry: o.Telemetry,
		})
		if err != nil {
			return nil, err
		}
		o.Telemetry.SetHealthSource(rfab)
		fab = rfab
	} else {
		tfab, err := transport.NewTCPFabric(addrs, me, o.Timeout)
		if err != nil {
			return nil, err
		}
		tfab.SetTelemetry(o.Telemetry)
		o.Telemetry.SetHealthSource(tfab)
		fab = tfab
	}
	defer fab.Close()
	ctx, cancel := context.WithTimeout(ctx, o.Timeout)
	defer cancel()
	if o.Observer != nil {
		ctx = obsv.WithRegistry(ctx, o.Observer)
		ctx = obsv.WithParty(ctx, o.Observer.Party(me))
	}
	var net transport.Net = fab
	if o.Faults != nil {
		net = transport.NewFaultNet(fab, *o.Faults)
	}
	// The session round doubles as trace-ID agreement: every party
	// proposes an ID derived from its own seed, party 0's wins, and the
	// agreed ID stamps every span this party exports.
	traceID, err := core.EstablishSessionCtx(ctx, params, me, net, core.DeriveTraceID(o.Seed))
	if err != nil {
		return nil, err
	}
	o.Observer.SetTraceID(traceID)
	if err := role(ctx, net); err != nil {
		return nil, transport.EnsureAbort(err, -1, "framework")
	}
	if rfab, ok := fab.(*transport.RecoveringTCPFabric); ok {
		// This party is done, but a crashed peer may still need what we
		// sent it: keep serving retransmissions until every peer has
		// reported holding everything or the blame window closes. Prompt
		// when all peers are alive and finish too.
		rfab.Drain(0)
	}
	stats := fab.Stats()
	return &ParticipantResult{BytesOnWire: stats.TotalBytes(), Rounds: stats.DistinctRounds, TraceID: traceID}, nil
}
