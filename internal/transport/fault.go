package transport

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"
	"time"
)

// FaultKind enumerates the channel faults FaultNet can inject.
type FaultKind int

const (
	// FaultDrop silently discards the message.
	FaultDrop FaultKind = iota
	// FaultDelay delivers the message late (breaking per-link FIFO if
	// another message overtakes it).
	FaultDelay
	// FaultDuplicate delivers the message twice.
	FaultDuplicate
	// FaultReorder holds the message back until the next message on the
	// same link has been delivered.
	FaultReorder
	// FaultCorrupt replaces the payload with a Corrupted marker, the
	// transport-level model of a mangled frame (protocol code's type
	// assertion then fails, which must surface as a clean abort).
	FaultCorrupt
	// FaultSever kills the link permanently: this and every later
	// message on it are discarded.
	FaultSever
	// FaultCrash kills the sending party: every send it attempts from
	// the rule's round onward fails with ErrCrashed, and the party is
	// marked down on the underlying fabric so peers detect the crash.
	FaultCrash
	// FaultEquivocate turns the matching broadcast into an equivocation:
	// at least one leg (and, seeded per leg, roughly half of them)
	// carries a substituted payload while the rest carry the original —
	// the adversarial sender behaviour only the echo sub-round can
	// attribute. Rule-only (no probability field); rules must leave To
	// at -1 since the fault targets the whole broadcast. Echo sub-round
	// broadcasts are never equivocated: the blame model assumes faulty
	// parties tamper with payloads, not with the echoes that convict
	// them (forged echoes would need signatures to attribute; see
	// DESIGN.md §3.6).
	FaultEquivocate
	// FaultReplayStale resends the previous message the link carried —
	// stale round tag and all — in place of the matching message,
	// modelling a replay attack; the receiver's round-tag check convicts
	// the sender. A link with no earlier message delivers unchanged.
	FaultReplayStale
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultDuplicate:
		return "duplicate"
	case FaultReorder:
		return "reorder"
	case FaultCorrupt:
		return "corrupt"
	case FaultSever:
		return "sever"
	case FaultCrash:
		return "crash"
	case FaultEquivocate:
		return "equivocate"
	case FaultReplayStale:
		return "replay-stale"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Corrupted is the payload FaultNet substitutes for a message mangled
// in transit. No protocol type-asserts to it, so a corrupted message is
// always detected as malformed.
type Corrupted struct {
	// Round is the round tag of the original message.
	Round int
}

// FaultRule targets one deterministic fault. Round, From and To may be
// -1 to match any value. A FaultCrash rule matches every round >= Round
// (a crashed party stays crashed); all other kinds match Round exactly.
type FaultRule struct {
	Kind            FaultKind
	Round, From, To int
}

// CrashAt builds the rule that crashes a party at a given round.
func CrashAt(party, round int) FaultRule {
	return FaultRule{Kind: FaultCrash, From: party, Round: round, To: -1}
}

func (r FaultRule) matches(round, from, to int) bool {
	if r.From != -1 && r.From != from {
		return false
	}
	if r.To != -1 && r.To != to {
		return false
	}
	if r.Kind == FaultCrash {
		return r.Round == -1 || round >= r.Round
	}
	return r.Round == -1 || round == r.Round
}

// FaultPlan is a deterministic fault schedule: targeted Rules plus
// per-message probabilities evaluated from a seeded hash of
// (seed, kind, round, src, dst, sequence number), so the same plan over
// the same protocol run injects exactly the same faults — chaos runs
// are reproducible from the seed alone.
type FaultPlan struct {
	// Seed drives every probabilistic decision.
	Seed int64
	// Per-message fault probabilities in [0, 1]. Each is evaluated
	// independently; the first that fires (in the order Sever, Drop,
	// Corrupt, Duplicate, Reorder, Delay) decides the message's fate.
	Sever, Drop, Corrupt, Duplicate, Reorder, Delay float64
	// MaxDelay bounds injected delivery delays (default 20ms).
	MaxDelay time.Duration
	// Rules are targeted deterministic faults, evaluated before the
	// probabilities; the first matching rule wins.
	Rules []FaultRule
}

// FaultCounts tallies the faults a FaultNet actually injected.
type FaultCounts struct {
	Drops, Delays, Duplicates, Reorders, Corrupts, Severs, Crashes int64
	// Equivocations counts equivocated broadcasts (once per broadcast,
	// not per tampered leg); Replays counts stale-round substitutions.
	Equivocations, Replays int64
}

// Total sums all injected faults.
func (c FaultCounts) Total() int64 {
	return c.Drops + c.Delays + c.Duplicates + c.Reorders + c.Corrupts + c.Severs + c.Crashes +
		c.Equivocations + c.Replays
}

type linkKey struct{ from, to int }

type heldMsg struct {
	round, bytes int
	payload      any
}

// FaultNet wraps any Net with deterministic, seeded fault injection on
// the send path. Receives pass through untouched: every injected fault
// is observed by the receiver exactly as a real network would present
// it (a missing, late, duplicated, reordered or mangled message, a dead
// link, or a crashed peer).
type FaultNet struct {
	inner Net
	plan  FaultPlan

	mu      sync.Mutex
	seq     map[linkKey]uint64
	severed map[linkKey]bool
	held    map[linkKey]heldMsg
	last    map[linkKey]heldMsg
	crashed map[int]bool
	counts  FaultCounts

	delays sync.WaitGroup
}

var _ Net = (*FaultNet)(nil)

// NewFaultNet wraps inner with the given plan.
func NewFaultNet(inner Net, plan FaultPlan) *FaultNet {
	if plan.MaxDelay <= 0 {
		plan.MaxDelay = 20 * time.Millisecond
	}
	return &FaultNet{
		inner:   inner,
		plan:    plan,
		seq:     make(map[linkKey]uint64),
		severed: make(map[linkKey]bool),
		held:    make(map[linkKey]heldMsg),
		last:    make(map[linkKey]heldMsg),
		crashed: make(map[int]bool),
	}
}

// Counts returns a snapshot of the injected-fault tallies.
func (f *FaultNet) Counts() FaultCounts {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts
}

// u derives the deterministic uniform variate for one decision.
func (f *FaultNet) u(kind FaultKind, round, from, to int, seq uint64) float64 {
	h := fnv.New64a()
	var buf [8 * 5]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(f.plan.Seed))
	binary.LittleEndian.PutUint64(buf[8:], uint64(kind))
	binary.LittleEndian.PutUint64(buf[16:], uint64(round)^uint64(from)<<24)
	binary.LittleEndian.PutUint64(buf[24:], uint64(to))
	binary.LittleEndian.PutUint64(buf[32:], seq)
	h.Write(buf[:])
	return float64(h.Sum64()>>11) / float64(uint64(1)<<53)
}

// decide picks the fault (if any) for one message.
func (f *FaultNet) decide(round, from, to int, seq uint64) (FaultKind, bool) {
	for _, r := range f.plan.Rules {
		// Equivocation is a broadcast-level fault, applied in Broadcast
		// before the per-leg sends; it must not fire again per leg.
		if r.Kind == FaultEquivocate {
			continue
		}
		if r.matches(round, from, to) {
			return r.Kind, true
		}
	}
	ladder := []struct {
		kind FaultKind
		p    float64
	}{
		{FaultSever, f.plan.Sever},
		{FaultDrop, f.plan.Drop},
		{FaultCorrupt, f.plan.Corrupt},
		{FaultDuplicate, f.plan.Duplicate},
		{FaultReorder, f.plan.Reorder},
		{FaultDelay, f.plan.Delay},
	}
	for _, step := range ladder {
		if step.p > 0 && f.u(step.kind, round, from, to, seq) < step.p {
			return step.kind, true
		}
	}
	return 0, false
}

// markDown propagates a crash to the underlying fabric's failure
// detector when it has one.
func (f *FaultNet) markDown(party int) {
	if md, ok := f.inner.(interface{ MarkDown(int) }); ok {
		md.MarkDown(party)
	}
}

// Send implements Net, applying the fault schedule.
func (f *FaultNet) Send(round, from, to, bytes int, payload any) error {
	link := linkKey{from, to}
	f.mu.Lock()
	if f.crashed[from] {
		f.mu.Unlock()
		return Abort(from, round, "", ErrCrashed)
	}
	seq := f.seq[link]
	f.seq[link] = seq + 1
	if f.severed[link] {
		f.counts.Drops++
		f.mu.Unlock()
		return nil
	}
	kind, faulted := f.decide(round, from, to, seq)
	// A message held for reordering is released right after the next
	// message on its link goes out.
	release, hasHeld := f.held[link]
	if hasHeld {
		delete(f.held, link)
	}
	var after []heldMsg
	if hasHeld {
		after = append(after, release)
	}

	if faulted {
		switch kind {
		case FaultCrash:
			f.crashed[from] = true
			f.counts.Crashes++
			f.mu.Unlock()
			f.markDown(from)
			return Abort(from, round, "", ErrCrashed)
		case FaultSever:
			f.severed[link] = true
			f.counts.Severs++
			f.mu.Unlock()
			f.deliverAll(from, to, after)
			return nil
		case FaultDrop:
			f.counts.Drops++
			f.mu.Unlock()
			f.deliverAll(from, to, after)
			return nil
		case FaultCorrupt:
			f.counts.Corrupts++
			payload = Corrupted{Round: round}
			bytes = 1
		case FaultReplayStale:
			// Resend the link's previous message in place of this one;
			// with no earlier message the send passes through unchanged
			// (a replay needs something to replay).
			if prev, ok := f.last[link]; ok {
				f.counts.Replays++
				round, bytes, payload = prev.round, prev.bytes, prev.payload
			}
		case FaultDuplicate:
			f.counts.Duplicates++
			after = append([]heldMsg{{round, bytes, payload}}, after...)
		case FaultReorder:
			f.counts.Reorders++
			f.held[link] = heldMsg{round, bytes, payload}
			f.mu.Unlock()
			f.deliverAll(from, to, after)
			return nil
		case FaultDelay:
			f.counts.Delays++
			delay := time.Duration(f.u(FaultKind(-1), round, from, to, seq) * float64(f.plan.MaxDelay))
			f.mu.Unlock()
			f.delays.Add(1)
			go func(m heldMsg) {
				defer f.delays.Done()
				time.Sleep(delay)
				// Delivery errors are unobservable to a real network's
				// lost frame too; the receiver-side abort machinery is
				// the detection path.
				_ = f.inner.Send(m.round, from, to, m.bytes, m.payload)
			}(heldMsg{round, bytes, payload})
			f.deliverAll(from, to, after)
			return nil
		}
	}
	// Remember the message about to go out in order, as replay fodder
	// for FaultReplayStale (delayed/reordered messages are skipped: they
	// leave Send before their delivery is decided).
	f.last[link] = heldMsg{round, bytes, payload}
	f.mu.Unlock()
	if err := f.inner.Send(round, from, to, bytes, payload); err != nil {
		return err
	}
	f.deliverAll(from, to, after)
	return nil
}

// deliverAll flushes follow-on deliveries (duplicates, released holds).
func (f *FaultNet) deliverAll(from, to int, msgs []heldMsg) {
	for _, m := range msgs {
		_ = f.inner.Send(m.round, from, to, m.bytes, m.payload)
	}
}

// Flush delivers every message still held back for reordering (a held
// message whose link never carries another message would otherwise stay
// in limbo; the receiver sees it as dropped and aborts cleanly, but
// tests may want the queues emptied).
func (f *FaultNet) Flush() {
	f.mu.Lock()
	held := f.held
	f.held = make(map[linkKey]heldMsg)
	f.mu.Unlock()
	for link, m := range held {
		_ = f.inner.Send(m.round, link.from, link.to, m.bytes, m.payload)
	}
}

// Wait blocks until every delayed delivery has been handed to the
// underlying net. Call it after a run finishes and before asserting on
// goroutine leaks.
func (f *FaultNet) Wait() {
	f.delays.Wait()
}

// N implements Net.
func (f *FaultNet) N() int { return f.inner.N() }

// RecvCtx implements Net.
func (f *FaultNet) RecvCtx(ctx context.Context, to, from, round int) (any, error) {
	return f.inner.RecvCtx(ctx, to, from, round)
}

// Broadcast implements Net as n−1 best-effort unicasts so each leg is
// faulted independently (a real broadcast over pairwise channels fails
// per link, not atomically). The first error is returned after every
// leg has been attempted.
//
// A matching FaultEquivocate rule turns the broadcast adversarial: the
// first leg always carries the substituted payload (so every
// equivocated broadcast really equivocates) and each later leg flips a
// seeded coin, while the sender's own echo will still claim the
// original — exactly the split the echo sub-round exists to catch.
func (f *FaultNet) Broadcast(round, from, bytes int, payload any) error {
	equivocate := false
	if !IsEchoRound(round) {
		for _, r := range f.plan.Rules {
			if r.Kind == FaultEquivocate && r.matches(round, from, -1) {
				equivocate = true
				break
			}
		}
	}
	if equivocate {
		f.mu.Lock()
		f.counts.Equivocations++
		f.mu.Unlock()
	}
	first := true
	return broadcastAll(f.N(), from, func(to int) error {
		p, b := payload, bytes
		if equivocate && (first || f.u(FaultEquivocate, round, from, to, 0) < 0.5) {
			p, b = Corrupted{Round: round}, bytes
		}
		first = false
		return f.Send(round, from, to, b, p)
	})
}
