// Package obsv is the protocol-wide observability layer: a per-party,
// phase-scoped span tracer plus a lock-cheap metrics registry counting
// crypto operations (group exponentiations/additions, ElGamal
// encryptions/decryptions, proofs made and checked) and communication
// (messages and bytes per phase per party).
//
// The design centres on a nil-registry fast path: every method on a nil
// *Registry, *Party or *Span is a no-op, so protocol code calls the
// observability hooks unconditionally and a disabled run pays only a
// nil check. Counters are plain atomic adds on a fixed-size array — no
// maps, no locks on the hot path — so enabling observability perturbs
// the measured protocol as little as possible.
//
// Attribution flows through two mechanisms:
//
//   - context: orchestrators install the registry with WithRegistry and
//     each party goroutine's handle with WithParty; protocol layers
//     recover them with RegistryFrom/PartyFrom.
//   - wrappers: Group wraps a group.Group so every Exp/Op/Inv is
//     counted, and ObservedNet wraps a transport.Net so every sent
//     message and byte is counted. Lower layers (elgamal, zkp) recover
//     the party from a wrapped group with PartyOf, which keeps their
//     signatures unchanged.
//
// Counts land on the party's current span, so per-phase breakdowns fall
// out of the same counters; operations outside any span accumulate on a
// catch-all span with phase "(unattributed)".
package obsv

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Op enumerates the counted operation kinds.
type Op int

// Counter taxonomy. Group-level ops are counted by the Group wrapper
// (an exponentiation by ExpGen also lands on OpGroupExp, since ExpGen
// delegates to Exp); ElGamal and proof ops are counted by their
// packages via PartyOf; SS ops by the ssmpc engine; field
// multiplications by dotprod; messages/bytes by the net wrapper.
const (
	OpGroupExp     Op = iota // group exponentiations
	OpGroupOp                // group multiplications / point additions
	OpGroupInv               // group inversions
	OpEncrypt                // ElGamal encryptions (incl. re-randomisations)
	OpDecrypt                // ElGamal (partial) decryptions
	OpProofMade              // Schnorr / Chaum–Pedersen proofs produced
	OpProofChecked           // proofs verified
	OpSSMul                  // SS multiplication-protocol invocations
	OpSSOpen                 // SS openings
	OpSSRound                // SS communication rounds
	OpFieldMul               // dot-product field multiplications
	OpMsgSent                // messages sent
	OpByteSent               // bytes sent
	OpEchoMsgSent            // echo sub-round messages sent (consistency overhead)
	OpEchoByteSent           // echo sub-round bytes sent
	OpRecvWait               // microseconds spent blocked in receives
	numOps
)

var opNames = [numOps]string{
	"group_exp", "group_op", "group_inv",
	"elgamal_enc", "elgamal_dec",
	"proofs_made", "proofs_checked",
	"ss_mul", "ss_open", "ss_round",
	"field_mul",
	"msgs_sent", "bytes_sent",
	"echo_msgs_sent", "echo_bytes_sent",
	"recv_wait_us",
}

// NumOps returns the number of counted operation kinds; Op values
// [0, NumOps) are valid. Exporters use it to iterate the taxonomy.
func NumOps() int { return int(numOps) }

// String returns the stable snake_case name used in exports.
func (o Op) String() string {
	if o < 0 || o >= numOps {
		return "unknown"
	}
	return opNames[o]
}

// Span is one phase-scoped measurement interval of one party. Its
// counters are updated with atomic adds; identity fields are immutable
// after creation. The end timestamp is atomic because a still-open span
// can be snapshotted (mid-run trace export, the admin endpoint) at the
// same moment the party's own goroutine closes it.
type Span struct {
	party  int
	phase  string
	seq    int // per-party span ordinal (1-based; 0 = catch-all)
	start  time.Time
	endNS  atomic.Int64 // UnixNano; 0 while open
	counts [numOps]int64
}

// end returns the close time and whether the span is closed.
func (s *Span) endTime() (time.Time, bool) {
	ns := s.endNS.Load()
	if ns == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, ns), true
}

func (s *Span) add(op Op, n int64) {
	atomic.AddInt64(&s.counts[op], n)
}

// Count reads one counter (atomically, so it is safe on open spans).
func (s *Span) Count(op Op) int64 {
	if s == nil || op < 0 || op >= numOps {
		return 0
	}
	return atomic.LoadInt64(&s.counts[op])
}

// Party is one party's handle into the registry. Begin/End must be
// called from the party's own goroutine; Add may be called from any
// goroutine. All methods are no-ops on a nil receiver.
type Party struct {
	idx     int
	reg     *Registry
	cur     atomic.Pointer[Span]
	nextSeq int // only touched from the party's goroutine (Begin)

	mu     sync.Mutex
	done   []*Span
	orphan Span // operations outside any span
}

// Index returns the party's index in the registry.
func (p *Party) Index() int {
	if p == nil {
		return -1
	}
	return p.idx
}

// Add charges n operations of the given kind to the party's current
// span (or to the catch-all span when none is open).
func (p *Party) Add(op Op, n int64) {
	if p == nil || op < 0 || op >= numOps {
		return
	}
	if s := p.cur.Load(); s != nil {
		s.add(op, n)
		return
	}
	p.orphan.add(op, n)
}

// Begin closes the current span (if any) and opens a new one with the
// given phase name.
func (p *Party) Begin(phase string) {
	if p == nil {
		return
	}
	p.End()
	p.nextSeq++
	s := &Span{party: p.idx, phase: phase, seq: p.nextSeq, start: time.Now()}
	p.cur.Store(s)
	// The hook runs after the span opens, so time it spends (fault
	// injection, straggler delays) is attributed to the span as compute.
	if hook := p.reg.beginHook(); hook != nil {
		hook(p.idx, phase)
	}
}

// End closes the current span. Calling End with no open span is a
// no-op, so a deferred End after a sequence of Begins is always safe.
func (p *Party) End() {
	if p == nil {
		return
	}
	s := p.cur.Swap(nil)
	if s == nil {
		return
	}
	s.endNS.Store(time.Now().UnixNano())
	p.mu.Lock()
	p.done = append(p.done, s)
	p.mu.Unlock()
}

// Total sums one counter over all of the party's spans, including the
// open one and the catch-all.
func (p *Party) Total(op Op) int64 {
	if p == nil {
		return 0
	}
	var t int64
	p.mu.Lock()
	for _, s := range p.done {
		t += s.Count(op)
	}
	p.mu.Unlock()
	t += p.orphan.Count(op)
	t += p.cur.Load().Count(op)
	return t
}

// Registry collects spans and counters for all parties of one run.
// A nil *Registry is the disabled state; every method is nil-safe.
type Registry struct {
	start time.Time

	mu      sync.Mutex
	parties map[int]*Party
	traceID string
	onBegin func(party int, phase string)
}

// SetTraceID pins the run-level trace identifier every exported span
// carries. The orchestrator sets it once the session-establishment
// round has agreed on it, so traces from different parties of the same
// run can be correlated by ID alone.
func (r *Registry) SetTraceID(id string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.traceID = id
	r.mu.Unlock()
}

// TraceID returns the pinned trace identifier ("" until set).
func (r *Registry) TraceID() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.traceID
}

// SetBeginHook installs fn to run inside every Party.Begin, after the
// new span has opened. Test harnesses use it to inject per-phase
// behaviour (e.g. a straggler's delay) that the trace attributes to the
// span like any other compute.
func (r *Registry) SetBeginHook(fn func(party int, phase string)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.onBegin = fn
	r.mu.Unlock()
}

func (r *Registry) beginHook() func(party int, phase string) {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.onBegin
}

// NewRegistry creates an empty registry; party handles are created on
// first use.
func NewRegistry() *Registry {
	return &Registry{start: time.Now(), parties: make(map[int]*Party)}
}

// Party returns (creating if needed) the handle for party idx. It
// returns nil on a nil registry, so the result is always safe to use.
func (r *Registry) Party(idx int) *Party {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.parties[idx]
	if !ok {
		p = &Party{idx: idx, reg: r}
		p.orphan.party = idx
		p.orphan.phase = "(unattributed)"
		p.orphan.start = r.start
		r.parties[idx] = p
	}
	return p
}

// Total sums one counter over every party.
func (r *Registry) Total(op Op) int64 {
	if r == nil {
		return 0
	}
	var t int64
	for _, p := range r.partyList() {
		t += p.Total(op)
	}
	return t
}

// PartyTotal sums one counter for one party (0 if the party never
// reported).
func (r *Registry) PartyTotal(idx int, op Op) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	p := r.parties[idx]
	r.mu.Unlock()
	return p.Total(op)
}

// partyList snapshots the party handles sorted by index.
func (r *Registry) partyList() []*Party {
	r.mu.Lock()
	out := make([]*Party, 0, len(r.parties))
	for _, p := range r.parties {
		out = append(out, p)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].idx < out[j].idx })
	return out
}

// SpanSnapshot is one exported span: identity, timing relative to
// registry creation, and the non-zero counters.
type SpanSnapshot struct {
	TraceID string           `json:"trace_id,omitempty"`
	Party   int              `json:"party"`
	Phase   string           `json:"phase"`
	Seq     int              `json:"seq"`
	StartUS int64            `json:"start_us"`
	DurUS   int64            `json:"dur_us"`
	Open    bool             `json:"open,omitempty"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

func (r *Registry) snapshotSpan(s *Span, open bool) SpanSnapshot {
	// A span grabbed from p.cur may be closed by the party's goroutine
	// between the load and this snapshot; trust the span's own state over
	// the caller's view so the race resolves to the closed duration.
	end, closed := s.endTime()
	if !closed {
		end = time.Now()
	} else {
		open = false
	}
	snap := SpanSnapshot{
		TraceID: r.TraceID(),
		Party:   s.party,
		Phase:   s.phase,
		Seq:     s.seq,
		StartUS: s.start.Sub(r.start).Microseconds(),
		DurUS:   end.Sub(s.start).Microseconds(),
		Open:    open,
	}
	for op := Op(0); op < numOps; op++ {
		if c := s.Count(op); c != 0 {
			if snap.Counts == nil {
				snap.Counts = make(map[string]int64)
			}
			snap.Counts[op.String()] = c
		}
	}
	return snap
}

// Spans snapshots every span of every party — closed spans, still-open
// spans (marked Open, with duration up to now) and non-empty catch-all
// spans — ordered by start time. It is safe to call while the run is in
// flight, which is what makes partial traces on abort possible.
func (r *Registry) Spans() []SpanSnapshot {
	if r == nil {
		return nil
	}
	var out []SpanSnapshot
	for _, p := range r.partyList() {
		p.mu.Lock()
		done := make([]*Span, len(p.done))
		copy(done, p.done)
		p.mu.Unlock()
		for _, s := range done {
			out = append(out, r.snapshotSpan(s, false))
		}
		if s := p.cur.Load(); s != nil {
			out = append(out, r.snapshotSpan(s, true))
		}
		orphan := r.snapshotSpan(&p.orphan, false)
		if len(orphan.Counts) > 0 {
			orphan.DurUS = 0
			out = append(out, orphan)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartUS < out[j].StartUS })
	return out
}

// Phases returns the distinct phase names seen across all spans, in
// order of first appearance.
func (r *Registry) Phases() []string {
	if r == nil {
		return nil
	}
	seen := make(map[string]bool)
	var out []string
	for _, s := range r.Spans() {
		if !seen[s.Phase] {
			seen[s.Phase] = true
			out = append(out, s.Phase)
		}
	}
	return out
}

// ---- context propagation ----

type ctxKey int

const (
	regKey ctxKey = iota
	partyKey
)

// WithRegistry installs the registry into the context; a nil registry
// leaves the context unchanged (the disabled fast path).
func WithRegistry(ctx context.Context, r *Registry) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, regKey, r)
}

// RegistryFrom recovers the registry, or nil when observability is off.
func RegistryFrom(ctx context.Context) *Registry {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(regKey).(*Registry)
	return r
}

// WithParty installs a party handle into the context; nil leaves the
// context unchanged.
func WithParty(ctx context.Context, p *Party) context.Context {
	if p == nil {
		return ctx
	}
	return context.WithValue(ctx, partyKey, p)
}

// PartyFrom recovers the current goroutine's party handle, or nil.
func PartyFrom(ctx context.Context) *Party {
	if ctx == nil {
		return nil
	}
	p, _ := ctx.Value(partyKey).(*Party)
	return p
}
