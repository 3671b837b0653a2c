package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"groupranking/internal/obsv"
	"groupranking/internal/ssmpc"
	"groupranking/internal/transport"
	"groupranking/internal/wirecodec"
)

// ErrSessionMismatch is the cause carried by the typed abort when the
// session-establishment round finds two parties configured with
// incompatible protocol parameters (different group, bit widths, k,
// sorter, ...). Matching it with errors.Is distinguishes "we never
// agreed what to run" from mid-protocol failures.
var ErrSessionMismatch = errors.New("core: session parameters disagree")

// sessionVersion guards the wire format itself: parties running
// incompatible builds abort in the handshake instead of failing with
// a decode error deep inside a crypto phase. Version 2 added the
// TraceID field to the announcement; version 3 added the pinned codec
// version when the binary wire codecs replaced gob; version 4 marks the
// secret-sharing sorter's new round structure (the comparison's carry
// tree and one mask-bit batch per sort), so a mixed mesh aborts here by
// name rather than mid-sort; version 5 sends each chain hop's output
// commitment (ProveDecryption) only to the parties that read it, where
// version 4 sent it to every party; version 6 deals each secret-sharing
// comparison's high mask as one integer per party in the first frame of
// the mask-bit batch, where version 5 drew it as κ + 1 more shared bits,
// so the frames of a mixed mesh's sort would not line up; version 7
// opens the sort's mask squares and last-layer products from their
// degree-2d shares and reduces a layer's products in the next layer's
// first less-than round, so a sort has fewer rounds than at version 6.
const sessionVersion = 7

// sessionMsg is the session-establishment announcement every party
// broadcasts before any crypto is spent. It pins every parameter whose
// disagreement would otherwise surface as garbage (wrong field sizes,
// undecodable group elements, diverging rankings) rather than an error.
type sessionMsg struct {
	Version int
	// Codec is the build's wire-codec version (wirecodec.Version).
	// Pinning it here turns a cross-build codec skew into a named
	// session abort during establishment instead of an undecodable
	// frame mid-protocol.
	Codec           int
	N, M, T         int
	D1, D2, H, K    int
	L               int // derived masked-gain width, double-checked explicitly
	Group           string
	Sorter          int
	SkipProofs      bool
	ProveDecryption bool
	Kappa           int // ssmpc.Kappa: a build with another constant is refused
	// TraceID is the run-level trace identifier proposal. Unlike every
	// other field it is deliberately excluded from diff(): party 0's
	// proposal wins and the others adopt it, so all parties stamp their
	// telemetry spans with one shared ID without an extra round.
	TraceID string
}

// sessionFromParams builds the canonical announcement for params,
// normalising defaulted fields so equivalent configurations compare
// equal.
func sessionFromParams(p Params) sessionMsg {
	return sessionMsg{
		Version: sessionVersion,
		Codec:   wirecodec.Version,
		N:       p.N, M: p.M, T: p.T,
		D1: p.D1, D2: p.D2, H: p.H, K: p.K,
		L:               p.BetaBits(),
		Group:           p.Group.Name(),
		Sorter:          int(p.Sorter),
		SkipProofs:      p.SkipProofs,
		ProveDecryption: p.ProveDecryption,
		Kappa:           ssmpc.Kappa,
	}
}

// diff returns "" when the announcements agree, otherwise a description
// of the first disagreeing parameter.
func (m sessionMsg) diff(o sessionMsg) string {
	for _, f := range []struct {
		name         string
		mine, theirs any
	}{
		{"wire version", m.Version, o.Version},
		{"codec version", m.Codec, o.Codec},
		{"party count n", m.N, o.N},
		{"attribute dimension m", m.M, o.M},
		{"equal-to count t", m.T, o.T},
		{"attribute bits d1", m.D1, o.D1},
		{"weight bits d2", m.D2, o.D2},
		{"mask bits h", m.H, o.H},
		{"top-k cut", m.K, o.K},
		{"masked-gain width l", m.L, o.L},
		{"group", m.Group, o.Group},
		{"sorter", Sorter(m.Sorter), Sorter(o.Sorter)},
		{"SkipProofs", m.SkipProofs, o.SkipProofs},
		{"ProveDecryption", m.ProveDecryption, o.ProveDecryption},
		{"statistical parameter kappa", m.Kappa, o.Kappa},
	} {
		if f.mine != f.theirs {
			return fmt.Sprintf("%s (mine %v, theirs %v)", f.name, f.mine, f.theirs)
		}
	}
	return ""
}

// deriveTraceID maps a party's resolved seed to the trace identifier
// it proposes in the session round. The derivation is deterministic so
// a crash-recovered party (same journaled seed) proposes the same ID
// and the merged trace stays coherent across restarts.
func deriveTraceID(seed string) string {
	sum := sha256.Sum256([]byte("groupranking-trace-v1|" + seed))
	return hex.EncodeToString(sum[:8])
}

// establishSession runs the session-establishment round: every party
// broadcasts its view of the protocol parameters and checks everyone
// else's against it, so a misconfigured deployment aborts with a typed
// *transport.AbortError (cause ErrSessionMismatch, naming the
// disagreeing party and parameter) before any crypto is spent. It uses
// round tag 0, below every protocol round, and must run on the same
// fabric as the subsequent phases. The in-process harness (RunCtx)
// skips it — all goroutines share one Params value by construction —
// so in-process message and operation counts are unchanged; the
// distributed entry points always run it.
//
// The round doubles as trace-ID agreement: each party's announcement
// carries its proposal (usually deriveTraceID of its seed), party 0's
// proposal wins, and the agreed ID is returned so the caller can stamp
// its telemetry. No extra message or byte is spent on it.
func establishSession(ctx context.Context, params Params, me int, fab transport.Net, propose string) (string, error) {
	if err := params.Validate(); err != nil {
		return "", err
	}
	obs := obsv.PartyFrom(ctx)
	net := obsv.ObservedNet(fab, obs)
	obs.Begin(PhaseSession)
	mine := sessionFromParams(params)
	mine.TraceID = propose
	// Echo broadcast: on real fabrics the announcement is followed by a
	// digest sub-round, so an initiator that tells different parties to
	// run different protocols is identified instead of producing n
	// mutually confusing mismatch aborts. In-process nets skip the echo
	// entirely (one memory space cannot equivocate).
	round := sessionRound(params)
	all, err := transport.EchoBroadcastCtx(ctx, net, me, round.Tag, round.Bytes, mine)
	if err != nil {
		return "", transport.AnnotatePhase(err, PhaseSession)
	}
	for j, payload := range all {
		if j == me {
			continue
		}
		theirs, ok := payload.(sessionMsg)
		if !ok {
			return "", transport.Abort(j, round.Tag, PhaseSession,
				fmt.Errorf("%w: party %d sent a malformed session announcement", ErrSessionMismatch, j))
		}
		if d := mine.diff(theirs); d != "" {
			return "", transport.Abort(j, round.Tag, PhaseSession,
				fmt.Errorf("%w: party %d disagrees on %s", ErrSessionMismatch, j, d))
		}
	}
	traceID := propose
	if me != 0 {
		if m0, ok := all[0].(sessionMsg); ok {
			traceID = m0.TraceID
		}
	}
	return traceID, nil
}
