package obsv

import (
	"context"
	"math/big"
	"runtime/pprof"
	"strconv"
	"time"

	"groupranking/internal/group"
	"groupranking/internal/transport"
)

// countingGroup counts Exp/Op/Inv on a party while delegating all group
// arithmetic. Elements pass through unchanged, so wrapped and unwrapped
// views of the same group interoperate freely (both DL and EC backends,
// including the secp160r1 limb field).
type countingGroup struct {
	group.Group
	party *Party
}

// Group wraps g so its exponentiations, multiplications and inversions
// are charged to p. ExpGen calls are counted too, since group.ExpGen
// delegates to Exp. A nil party returns g unchanged (zero overhead
// disabled path); wrapping an already-wrapped group for the same party
// is a no-op, so layered call sites cannot double-count.
func Group(g group.Group, p *Party) group.Group {
	if p == nil {
		return g
	}
	if c, ok := g.(countingGroup); ok && c.party == p {
		return g
	}
	return countingGroup{Group: g, party: p}
}

// PartyOf recovers the party a group was wrapped for, or nil. Packages
// below the protocol layer (elgamal, zkp) use it to attribute their own
// operation counts without any signature change.
func PartyOf(g group.Group) *Party {
	if c, ok := g.(countingGroup); ok {
		return c.party
	}
	return nil
}

// Underlying implements group.Unwrapper, so group.Raw can reach the
// concrete group: fixed-base tables must build and evaluate on raw
// arithmetic, not through the counters.
func (c countingGroup) Underlying() group.Group { return c.Group }

func (c countingGroup) Exp(a group.Element, k *big.Int) group.Element {
	c.party.Add(OpGroupExp, 1)
	return c.Group.Exp(a, k)
}

func (c countingGroup) Op(a, b group.Element) group.Element {
	c.party.Add(OpGroupOp, 1)
	return c.Group.Op(a, b)
}

func (c countingGroup) Inv(a group.Element) group.Element {
	c.party.Add(OpGroupInv, 1)
	return c.Group.Inv(a)
}

// countingNet counts sender-side messages and bytes on a party while
// delegating to the underlying net.
type countingNet struct {
	transport.Net
	party *Party
}

// ObservedNet wraps n so every message and byte this party sends is
// charged to p's current span. A nil party returns n unchanged. Receive
// paths are untouched: traffic is attributed once, at its sender, so
// per-party counts sum to the fabric totals.
//
// Convention: the wrapper is installed at the protocol leaf that owns
// the sends (unlinksort.PartyCtx, the ssmpc engine, core's own
// phase-1/3 sends), over the raw fabric or sub-view — never stacked.
func ObservedNet(n transport.Net, p *Party) transport.Net {
	if p == nil {
		return n
	}
	if c, ok := n.(countingNet); ok && c.party == p {
		return n
	}
	return countingNet{Net: n, party: p}
}

func (c countingNet) Send(round, from, to, bytes int, payload any) error {
	if transport.IsEchoRound(round) {
		// Consistency-layer overhead: charged to its own counters so the
		// protocol's message/byte counts (which the crossval suite pins
		// exactly) are identical with and without echo broadcasts.
		c.party.Add(OpEchoMsgSent, 1)
		c.party.Add(OpEchoByteSent, int64(bytes))
	} else {
		c.party.Add(OpMsgSent, 1)
		c.party.Add(OpByteSent, int64(bytes))
	}
	return c.Net.Send(round, from, to, bytes, payload)
}

func (c countingNet) Broadcast(round, from, bytes int, payload any) error {
	legs := int64(c.Net.N() - 1)
	if transport.IsEchoRound(round) {
		c.party.Add(OpEchoMsgSent, legs)
		c.party.Add(OpEchoByteSent, legs*int64(bytes))
	} else {
		c.party.Add(OpMsgSent, legs)
		c.party.Add(OpByteSent, legs*int64(bytes))
	}
	return c.Net.Broadcast(round, from, bytes, payload)
}

// RecvCtx times the blocking wait and charges it (in microseconds) to
// the party's current span. Together with the span's wall time this
// gives the wait-vs-compute split the trace analyzer uses to tell a
// slow party from a party stuck waiting on a slow peer.
func (c countingNet) RecvCtx(ctx context.Context, to, from, round int) (any, error) {
	start := time.Now()
	p, err := c.Net.RecvCtx(ctx, to, from, round)
	c.party.Add(OpRecvWait, time.Since(start).Microseconds())
	return p, err
}

// EchoRequired forwards the consistency layer's capability probe to the
// wrapped net. The probe method is not part of the Net interface, so an
// embedded-interface wrapper would otherwise hide it and silently
// disable equivocation detection on real fabrics.
func (c countingNet) EchoRequired() bool { return transport.NeedsEcho(c.Net) }

// Do runs fn labelled with the party index in runtime/pprof profiles
// when observability is enabled, and calls it directly (no label
// allocation) otherwise. Orchestrators wrap each protocol goroutine's
// body in it.
func Do(ctx context.Context, party int, fn func(context.Context)) {
	if RegistryFrom(ctx) == nil {
		fn(ctx)
		return
	}
	pprof.Do(ctx, pprof.Labels("grouprank_party", strconv.Itoa(party)), fn)
}
