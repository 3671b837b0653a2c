// Package obsv is the protocol-wide observability layer: a per-party,
// phase-scoped span tracer over counters of crypto operations (group
// exponentiations/additions, ElGamal encryptions/decryptions, proofs
// made and checked) and communication (messages and bytes per phase per
// party), with the JSONL trace and summary-table exporters.
//
// The counters themselves live in internal/telemetry, the one counter,
// gauge and histogram store: a Registry owns a *telemetry.Registry
// (Metrics) in which each party's ops are the counter family
// grouprank_ops_total{party,op}, one cell per quantity. The transport,
// journal and daemon metrics of a run feed the same store, so the admin
// endpoint's /metrics serves them all from one exposition writer.
//
// The design centres on a nil-registry fast path: every method on a nil
// *Registry or *Party is a no-op, so protocol code calls the
// observability hooks unconditionally and a disabled run pays only a
// nil check. An enabled Add is one atomic add on a cell the party
// resolved at creation — no maps, no locks on the hot path — so enabling
// observability perturbs the measured protocol as little as possible.
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
// A span records the party's cells when it begins and ends, and counts
// the difference, so per-phase breakdowns fall out of the same cells;
// what a party counts outside any span is its catch-all span, phase
// "(unattributed)": the total minus the spans.
package obsv

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"time"

	"groupranking/internal/telemetry"
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

// String returns the stable snake_case name used in exports.
func (o Op) String() string {
	if o < 0 || o >= numOps {
		return "unknown"
	}
	return opNames[o]
}

// span is one phase-scoped measurement interval of one party: its
// identity, its timing, and the party's counter cells as Begin and End
// read them. Its counts are the difference, or "now minus Begin" while
// it is open. Every field after creation is guarded by the party's mu.
type span struct {
	phase   string
	seq     int // per-party span ordinal (1-based)
	start   time.Time
	end     time.Time     // zero while open
	atBegin [numOps]int64 // the party's cells at Begin
	atEnd   [numOps]int64 // the party's cells at End
}

// Party is one party's handle into the registry. Its operation counts
// live in the registry's metric store, one grouprank_ops_total{party,op}
// counter per op, resolved once at creation; spans only read them. Add
// may be called from any goroutine, Begin/End from the party's own.
// All methods are no-ops on a nil receiver.
type Party struct {
	idx   int
	reg   *Registry
	cells [numOps]*telemetry.Counter

	mu      sync.Mutex
	nextSeq int
	cur     *span
	done    []*span
}

// Add charges n operations of the given kind to the party: one atomic
// add on that op's cell. Which span the operations belong to follows
// from when they happen.
func (p *Party) Add(op Op, n int64) {
	if p == nil {
		return
	}
	p.cells[op].Add(n)
}

// read loads every cell of the party, one atomic read each.
func (p *Party) read() (now [numOps]int64) {
	for op, c := range p.cells {
		now[op] = c.Value()
	}
	return now
}

// Begin closes the current span (if any) and opens a new one with the
// given phase name.
func (p *Party) Begin(phase string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.endLocked()
	p.nextSeq++
	p.cur = &span{phase: phase, seq: p.nextSeq, start: time.Now(), atBegin: p.read()}
	p.mu.Unlock()
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
	p.mu.Lock()
	p.endLocked()
	p.mu.Unlock()
}

func (p *Party) endLocked() {
	s := p.cur
	if s == nil {
		return
	}
	s.atEnd, s.end = p.read(), time.Now()
	p.done = append(p.done, s)
	p.cur = nil
}

// Registry collects the spans of all parties of one run over the
// counters in its metric store. A nil *Registry is the disabled state;
// every method is nil-safe.
type Registry struct {
	start   time.Time
	metrics *telemetry.Registry
	ops     *telemetry.CounterVec

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

// NewRegistry creates an empty registry with a metric store of its own;
// party handles are created on first use.
func NewRegistry() *Registry {
	m := telemetry.NewRegistry()
	return &Registry{
		start:   time.Now(),
		metrics: m,
		ops:     m.CounterVec("grouprank_ops_total", "Protocol operations by party and kind.", "party", "op"),
		parties: make(map[int]*Party),
	}
}

// Metrics returns the registry's metric store: the protocol's
// grouprank_ops_total family, and whatever the runtime under the
// parties (transport, journal, daemon) registers in it. The admin
// endpoint serves it. Nil on a nil registry, the disabled store.
func (r *Registry) Metrics() *telemetry.Registry {
	if r == nil {
		return nil
	}
	return r.metrics
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
		party := strconv.Itoa(idx)
		for op := range p.cells {
			p.cells[op] = r.ops.With(party, Op(op).String())
		}
		r.parties[idx] = p
	}
	return p
}

// PartyTotal reads one counter of one party: its cell, which every span
// and the catch-all share (0 if the party never reported).
func (r *Registry) PartyTotal(idx int, op Op) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	p := r.parties[idx]
	r.mu.Unlock()
	if p == nil {
		return 0
	}
	return p.cells[op].Value()
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

// counts is what the span counted: the cells at End minus the cells
// at Begin, or now minus Begin while it is open.
func (s *span) counts(now *[numOps]int64) (c [numOps]int64) {
	atEnd := &s.atEnd
	if s.end.IsZero() {
		atEnd = now
	}
	for op := range c {
		c[op] = atEnd[op] - s.atBegin[op]
	}
	return c
}

// snapshot exports one span of party with its counts; a span still
// open ends now.
func (r *Registry) snapshot(traceID string, party int, s *span, counts *[numOps]int64) SpanSnapshot {
	end, open := s.end, s.end.IsZero()
	if open {
		end = time.Now()
	}
	return SpanSnapshot{
		TraceID: traceID,
		Party:   party,
		Phase:   s.phase,
		Seq:     s.seq,
		StartUS: s.start.Sub(r.start).Microseconds(),
		DurUS:   end.Sub(s.start).Microseconds(),
		Open:    open,
		Counts:  countMap(counts),
	}
}

// countMap names the non-zero counts, nil when there are none.
func countMap(counts *[numOps]int64) map[string]int64 {
	var m map[string]int64
	for op, c := range counts {
		if c != 0 {
			if m == nil {
				m = make(map[string]int64)
			}
			m[Op(op).String()] = c
		}
	}
	return m
}

// Spans snapshots every span of every party — closed spans, still-open
// spans (marked Open, with duration up to now) and a non-empty
// catch-all span per party, phase "(unattributed)", holding what the
// party's cells counted outside its spans — ordered by start time. It
// is safe to call while the run is in flight, which is what makes
// partial traces on abort possible.
func (r *Registry) Spans() []SpanSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	traceID := r.traceID
	r.mu.Unlock()
	var out []SpanSnapshot
	for _, p := range r.partyList() {
		p.mu.Lock()
		now := p.read()
		orphan := now
		spans := p.done
		if p.cur != nil {
			spans = append(spans[:len(spans):len(spans)], p.cur)
		}
		for _, s := range spans {
			counts := s.counts(&now)
			for op, c := range counts {
				orphan[op] -= c
			}
			out = append(out, r.snapshot(traceID, p.idx, s, &counts))
		}
		p.mu.Unlock()
		if counts := countMap(&orphan); counts != nil {
			out = append(out, SpanSnapshot{TraceID: traceID, Party: p.idx, Phase: "(unattributed)", Counts: counts})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartUS < out[j].StartUS })
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
