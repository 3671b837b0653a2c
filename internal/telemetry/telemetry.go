// Package telemetry is the runtime's live metrics layer: a streaming
// registry of counters, gauges and fixed-bucket latency histograms that
// the transport, journal and deployment layers feed while a session is
// in flight, and that the admin HTTP endpoint exports in Prometheus
// text exposition format for scraping mid-run.
//
// It deliberately mirrors internal/obsv's design contract: a nil
// *Registry is the disabled state and every handle obtained from it is
// nil too, so instrumented code calls its metric hooks unconditionally
// and a disabled run pays exactly one nil check per hook. The hot path
// is lock-free — counters and gauges are single atomic words, histogram
// observations are an atomic bucket increment plus a CAS-looped sum —
// so enabling telemetry does not perturb the protocol it measures.
//
// Where obsv answers "what did the protocol compute and send, per phase,
// per party", telemetry answers "how is the runtime underneath it
// doing": per-round wall time, redials, retransmissions, heartbeat
// RTT, journal append and fsync latency. obsv traces are
// per-run artifacts merged offline by cmd/ranktrace; telemetry is the
// live surface /metrics and /healthz are built on.
//
// The package is a stdlib-only leaf: transport, journal and obsv all
// import it, never the reverse.
package telemetry

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
)

// metricNamePattern is the exposition-format-safe shape every metric
// name (and label key) must match. It is exported via ValidName so the
// guard tests in the instrumented packages can enforce it on the names
// they actually register.
var metricNamePattern = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// ValidName reports whether name is a legal metric or label name:
// lower-snake-case, starting with a letter — the subset of the
// Prometheus data model this package permits, so every registered
// metric is guaranteed to export cleanly.
func ValidName(name string) bool { return metricNamePattern.MatchString(name) }

// kind discriminates metric families.
type kind uint8

const (
	kindCounter kind = iota + 1
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// family is one named metric family: all children share the name, help
// text, kind, label key and (for histograms) bucket layout.
type family struct {
	name    string
	help    string
	kind    kind
	label   string    // label key, "" for unlabelled families
	buckets []float64 // histogram upper bounds, ascending; +Inf implicit

	mu       sync.Mutex
	order    []string // label values in first-use order, for stable export
	children map[string]*metric
}

// metric is one concrete series. Exactly one of the field groups is
// live, selected by the family kind; keeping them in one struct lets
// the typed handles stay single-pointer wrappers.
type metric struct {
	fam        *family
	labelValue string

	val  int64  // counter value / histogram observation count
	bits uint64 // gauge float64 bits / unused

	hcounts []int64 // histogram per-bucket counts, len(buckets)+1 (+Inf last)
	hsum    uint64  // histogram sum, float64 bits, CAS-updated
}

func (f *family) child(labelValue string) *metric {
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.children[labelValue]
	if !ok {
		m = &metric{fam: f, labelValue: labelValue}
		if f.kind == kindHistogram {
			m.hcounts = make([]int64, len(f.buckets)+1)
		}
		f.children[labelValue] = m
		f.order = append(f.order, labelValue)
	}
	return m
}

// Registry holds one process's metric families. A nil *Registry is the
// disabled state: every method is nil-safe and every handle it returns
// is itself a no-op. All methods are safe for concurrent use.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family

	health    HealthSource
	svcStatus func() ServiceStatus
}

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family registers (or retrieves) a family, panicking on an invalid
// name or a redefinition with a different shape — both are programmer
// errors that would otherwise corrupt the exposition output silently.
func (r *Registry) family(name, help string, k kind, label string, buckets []float64) *family {
	if !ValidName(name) {
		panic(fmt.Sprintf("telemetry: metric name %q does not match %s", name, metricNamePattern))
	}
	if label != "" && !ValidName(label) {
		panic(fmt.Sprintf("telemetry: label name %q does not match %s", label, metricNamePattern))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q buckets not strictly ascending", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != k || f.label != label || len(f.buckets) != len(buckets) {
			panic(fmt.Sprintf("telemetry: metric %q redefined as a different %s", name, k))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: k, label: label,
		buckets:  append([]float64(nil), buckets...),
		children: make(map[string]*metric),
	}
	r.byName[name] = f
	r.fams = append(r.fams, f)
	return f
}

// Names returns every registered family name, sorted. The guard tests
// use it to check that everything a run registers is exposition-safe.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]string, 0, len(r.fams))
	for _, f := range r.fams {
		out = append(out, f.name)
	}
	r.mu.Unlock()
	sort.Strings(out)
	return out
}

// ---- counters ----

// Counter is a monotonically increasing count. A nil Counter (from a
// nil registry) is a no-op.
type Counter struct{ m *metric }

// Counter registers (or retrieves) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return &Counter{m: r.family(name, help, kindCounter, "", nil).child("")}
}

// CounterVec is a counter family with one label dimension.
type CounterVec struct{ fam *family }

// CounterVec registers (or retrieves) a counter family keyed by label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{fam: r.family(name, help, kindCounter, label, nil)}
}

// With returns the child counter for one label value.
func (v *CounterVec) With(labelValue string) *Counter {
	if v == nil {
		return nil
	}
	return &Counter{m: v.fam.child(labelValue)}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be non-negative; counters never go down).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	atomic.AddInt64(&c.m.val, n)
}

// Value reads the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return atomic.LoadInt64(&c.m.val)
}

// ---- gauges ----

// Gauge is an instantaneous value that can go up and down. A nil Gauge
// is a no-op.
type Gauge struct{ m *metric }

// Gauge registers (or retrieves) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return &Gauge{m: r.family(name, help, kindGauge, "", nil).child("")}
}

// GaugeVec is a gauge family with one label dimension.
type GaugeVec struct{ fam *family }

// GaugeVec registers (or retrieves) a gauge family keyed by label.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{fam: r.family(name, help, kindGauge, label, nil)}
}

// With returns the child gauge for one label value.
func (v *GaugeVec) With(labelValue string) *Gauge {
	if v == nil {
		return nil
	}
	return &Gauge{m: v.fam.child(labelValue)}
}

// Set stores the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	atomic.StoreUint64(&g.m.bits, math.Float64bits(v))
}

// Value reads the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&g.m.bits))
}

// ---- histograms ----

// Histogram is a fixed-bucket latency/size distribution. A nil
// Histogram is a no-op.
type Histogram struct{ m *metric }

// Histogram registers (or retrieves) an unlabelled histogram with the
// given ascending bucket upper bounds (the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	return &Histogram{m: r.family(name, help, kindHistogram, "", buckets).child("")}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	m := h.m
	i := sort.SearchFloat64s(m.fam.buckets, v) // first bucket with bound >= v
	atomic.AddInt64(&m.hcounts[i], 1)
	atomic.AddInt64(&m.val, 1)
	for {
		old := atomic.LoadUint64(&m.hsum)
		next := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(&m.hsum, old, next) {
			return
		}
	}
}

// Count reads the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return atomic.LoadInt64(&h.m.val)
}

// Sum reads the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&h.m.hsum))
}

// ExpBuckets builds n exponentially growing bucket bounds starting at
// start: start, start*factor, start*factor², … — the standard latency
// histogram layout.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
