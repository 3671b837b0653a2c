package transport

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
)

// Consistent (echo) broadcast. Over pairwise channels an ordinary
// broadcast is n−1 independent unicasts, so a malicious sender can
// equivocate: announce one histogram, key share or session parameter
// set to some peers and a different one to others, and the honest
// parties disagree without ever identifying the cheater. The classic
// fix (Bracha's echo round) is to have every receiver re-announce a
// digest of what it received; a sender that equivocated is caught by
// any pair of honest parties comparing digests — including the sender
// itself, whose own echo commits it to one payload.
//
// EchoBroadcastCtx implements one such round on top of any Net:
//
//	round           every party broadcasts its payload
//	echoRound(round) every party broadcasts the digest vector of what
//	                 it received (own slot: what it claims it sent)
//
// and every party cross-checks all digest vectors. A mismatch on
// sender s surfaces as a typed *AbortError whose cause is an
// *EquivocationError naming s with the two conflicting digests, and
// whose certificate lets internal/blame confirm the accusation
// offline.
//
// Fast path: in-process fabrics share one memory space, so a payload
// physically cannot differ between receivers; NeedsEcho reports false
// for them and the echo sub-round is skipped entirely — zero extra
// messages, which keeps in-process message/round counts (and therefore
// `make bench-compare` and the crossval suite) byte-identical to the
// semi-honest protocol. Real fabrics (TCP, recovering TCP) and fault
// nets injecting Byzantine behaviour report true and pay the echo.
//
// Guarantees and non-guarantees: the echo round detects a sender whose
// broadcast legs disagreed, and attributes corruption on a sender's
// channel to that sender (a party is responsible for its own links).
// It does NOT provide Byzantine agreement — a cheater can still split
// the group into parties that abort and parties that finish the round,
// it only cannot make two honest parties accept different payloads
// undetected. It also assumes echoes themselves are delivered intact:
// without per-message signatures a forged echo could frame an honest
// sender, so the deployment model (DESIGN.md §3.6) is covert security
// with identifiable abort, not full malicious security.

// echoRoundBand is the round-tag offset reserved for echo sub-rounds.
// It sits far above every protocol band (gain rounds {1,2}, sort
// rounds [10, 1<<20), submission round 1<<20, plus sub-view offsets),
// so echo traffic can be recognised by tag alone and excluded from the
// per-round protocol statistics.
const echoRoundBand = 1 << 24

// echoRound maps a broadcast round tag to its paired echo sub-round.
func echoRound(round int) int { return round + echoRoundBand }

// IsEchoRound reports whether a round tag lies in the reserved echo
// band. Fabrics use it to keep echo traffic out of the protocol
// message/byte/round counters (it is tallied separately in Stats).
func IsEchoRound(round int) bool { return round >= echoRoundBand }

// echoMsg is the digest vector exchanged in the echo sub-round:
// Digests[j] is the sender's SHA-256 digest of the payload it received
// from party j in the paired broadcast round (its own slot holds the
// digest of the payload it claims to have broadcast).
type echoMsg struct {
	Digests [][]byte
}

// echoRequirer is the capability probe a Net implementation exposes to
// opt into the echo sub-round. It is deliberately not part of the Net
// interface: wrappers that embed Net (obsv's counting wrapper) forward
// it explicitly, and implementations that omit it default to the
// zero-message fast path.
type echoRequirer interface{ EchoRequired() bool }

// NeedsEcho reports whether broadcasts over net must run the echo
// sub-round: false for in-process fabrics (one memory space cannot
// equivocate), true for real meshes and for fault nets injecting
// Byzantine behaviour.
func NeedsEcho(net Net) bool {
	if er, ok := net.(echoRequirer); ok {
		return er.EchoRequired()
	}
	return false
}

// EchoRequired opts a TCPFabric into the echo sub-round: a remote peer
// is a separate process that can send every receiver a different
// payload.
func (f *TCPFabric) EchoRequired() bool { return true }

// EchoRequired delegates to the parent: a sub-view equivocates exactly
// when its parent fabric can.
func (s *SubView) EchoRequired() bool { return NeedsEcho(s.parent) }

// EchoRequired reports whether the fault plan injects sender-side
// Byzantine behaviour that only the echo sub-round can attribute, or
// the wrapped net itself needs echoes.
func (f *FaultNet) EchoRequired() bool {
	for _, r := range f.plan.Rules {
		if r.Kind == FaultEquivocate {
			return true
		}
	}
	return NeedsEcho(f.inner)
}

// EquivocationError is the cause carried by the typed abort when the
// echo sub-round catches a sender whose broadcast legs disagreed. It
// names the sender and the two conflicting digests: the one the
// reporting party computed locally and the one another party echoed.
type EquivocationError struct {
	// Sender is the accused broadcaster.
	Sender int
	// Round is the broadcast round the equivocation happened in.
	Round int
	// Witness is the party whose echoed digest disagreed with ours.
	Witness int
	// Local is our digest of the payload received from Sender; Echoed
	// is the digest Witness reported for the same broadcast.
	Local, Echoed []byte
}

// Error implements error.
func (e *EquivocationError) Error() string {
	return fmt.Sprintf("transport: party %d equivocated in broadcast round %d: local digest %x, party %d echoed %x",
		e.Sender, e.Round, e.Local, e.Witness, e.Echoed)
}

// EchoBroadcastCtx runs one consistent-broadcast round: every party
// calls it concurrently with its own payload; it broadcasts the
// payload at round, gathers every other party's, and — when the net
// requires echoes — runs the paired digest sub-round and cross-checks
// every reported digest before returning. The gathered payloads come
// back indexed by sender with the self slot nil (the caller already
// holds its own payload), exactly like GatherAll.
//
// On a digest mismatch every honest caller returns an *AbortError
// naming the equivocating sender, carrying an *EquivocationError cause
// and a CheckEquivocation blame certificate.
func EchoBroadcastCtx(ctx context.Context, net Net, me, round, size int, payload any) ([]any, error) {
	all, err := broadcastGather(ctx, net, me, round, size, payload)
	if err != nil {
		return nil, err
	}
	if !NeedsEcho(net) {
		return all, nil // in-process fast path: zero extra messages
	}

	n := net.N()
	digests := make([][]byte, n)
	for j := 0; j < n; j++ {
		src := all[j]
		if j == me {
			src = payload
		}
		if digests[j], err = PayloadDigest(src); err != nil {
			return nil, err
		}
	}
	echoTag := echoRound(round)
	echoBytes := n * sha256.Size
	echoes, err := broadcastGather(ctx, net, me, echoTag, echoBytes, echoMsg{Digests: digests})
	if err != nil {
		return nil, err
	}
	for w := 0; w < n; w++ {
		if w == me {
			continue
		}
		em, ok := echoes[w].(echoMsg)
		if !ok || len(em.Digests) != n {
			got := fmt.Sprintf("%T", echoes[w])
			return nil, Abort(w, echoTag, "",
				fmt.Errorf("party %d sent a malformed echo (%s)", w, got)).
				WithCert(&BlameCert{
					Version: BlameCertVersion, Accused: w, Reporter: me,
					Round: round, Check: CheckMalformed,
					Detail: "echo digest vector malformed or mis-sized",
					Items: []BlameItem{
						{Name: "type-got", Data: []byte(got)},
						{Name: "type-want", Data: []byte(fmt.Sprintf("%T with %d digests", echoMsg{}, n))},
					},
				})
		}
		// Every slot is checked, including s == w (the witness's claim
		// about its own broadcast versus what we received from it) and
		// s == me (what the witness received from us versus what we
		// sent — a mismatch there attributes tampering on our own
		// outgoing link to us, the party responsible for it).
		for s := 0; s < n; s++ {
			if len(em.Digests[s]) != sha256.Size {
				return nil, Abort(w, echoTag, "",
					fmt.Errorf("party %d sent a malformed echo digest for party %d", w, s)).
					WithCert(&BlameCert{
						Version: BlameCertVersion, Accused: w, Reporter: me,
						Round: round, Check: CheckMalformed,
						Detail: fmt.Sprintf("echo digest for party %d has %d bytes, want %d", s, len(em.Digests[s]), sha256.Size),
						Items: []BlameItem{
							{Name: "type-got", Data: []byte(fmt.Sprintf("%d-byte digest", len(em.Digests[s])))},
							{Name: "type-want", Data: []byte(fmt.Sprintf("%d-byte digest", sha256.Size))},
						},
					})
			}
			if !bytes.Equal(digests[s], em.Digests[s]) {
				eq := &EquivocationError{Sender: s, Round: round, Witness: w, Local: digests[s], Echoed: em.Digests[s]}
				return nil, Abort(s, round, "", eq).WithCert(&BlameCert{
					Version: BlameCertVersion, Accused: s, Reporter: me,
					Round: round, Check: CheckEquivocation,
					Detail: fmt.Sprintf("party %d's echo of party %d's broadcast disagrees with the locally received payload", w, s),
					Items: []BlameItem{
						{Name: "digest-local", Data: digests[s]},
						{Name: "digest-echoed", Data: em.Digests[s]},
					},
				})
			}
		}
	}
	return all, nil
}

// broadcastGather broadcasts payload at round and gathers the round; a
// leg that failed on a down peer is reported after the receives, which
// name the party whose message is missing, not a survivor since gone.
func broadcastGather(ctx context.Context, net Net, me, round, size int, payload any) ([]any, error) {
	sendErr := net.Broadcast(round, me, size, payload)
	if sendErr != nil && !errors.Is(sendErr, ErrPeerDown) {
		return nil, sendErr
	}
	all, err := GatherAll(ctx, net, me, round)
	return all, cmp.Or(err, sendErr)
}
