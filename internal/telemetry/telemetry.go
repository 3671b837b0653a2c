// Package telemetry is the one metrics store: a streaming registry of
// counters, gauges and fixed-bucket latency histograms, and the one
// writer of the Prometheus text exposition format, which the admin HTTP
// endpoint serves for scraping mid-run.
//
// Everything a run counts lives here. The transport, journal and
// deployment layers feed their families directly (per-round wall time,
// redials, retransmissions, heartbeat RTT, journal append and fsync
// latency); internal/obsv keeps the protocol's per-party operation
// counts in the same store, as the counter family
// grouprank_ops_total{party,op}, and adds spans, traces and summaries
// on top. A family takes any number of label keys.
//
// A nil *Registry is the disabled state and every handle obtained from
// it is nil too, so instrumented code calls its metric hooks
// unconditionally and a disabled run pays exactly one nil check per
// hook. The hot path is lock-free — counters and gauges are single
// atomic words, histogram observations are an atomic bucket increment
// plus a CAS-looped sum — so enabling telemetry does not perturb the
// protocol it measures.
//
// The package is a stdlib-only leaf: transport, journal and obsv all
// import it, never the reverse.
package telemetry

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"sort"
	"strings"
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
// text, kind, label keys and (for histograms) bucket layout.
type family struct {
	name    string
	help    string
	kind    kind
	labels  []string  // label keys, none for unlabelled families
	buckets []float64 // histogram upper bounds, ascending; +Inf implicit

	mu       sync.Mutex
	order    []*metric          // children in first-use order, for stable export
	children map[string]*metric // keyed by the label values joined with labelSep
}

// labelSep joins a child's label values into its map key; it cannot
// occur in valid UTF-8, so distinct value lists never share a key.
const labelSep = "\xff"

// metric is one concrete series. Exactly one of the field groups is
// live, selected by the family kind; keeping them in one struct lets
// the typed handles stay single-pointer wrappers.
type metric struct {
	fam    *family
	labels string // the rendered label set, e.g. {peer="1"}; "" when unlabelled

	val  int64  // counter value / histogram observation count
	bits uint64 // gauge float64 bits / unused

	hcounts []int64 // histogram per-bucket counts, len(buckets)+1 (+Inf last)
	hsum    uint64  // histogram sum, float64 bits, CAS-updated
}

// child returns (creating on first use) the series for one value per
// label key, panicking on a wrong value count — a programmer error like
// a bad name.
func (f *family) child(values ...string) *metric {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %q takes %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.children[key]
	if !ok {
		m = &metric{fam: f, labels: renderLabels(f.labels, values)}
		if f.kind == kindHistogram {
			m.hcounts = make([]int64, len(f.buckets)+1)
		}
		f.children[key] = m
		f.order = append(f.order, m)
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
func (r *Registry) family(name, help string, k kind, labels []string, buckets []float64) *family {
	if !ValidName(name) {
		panic(fmt.Sprintf("telemetry: metric name %q does not match %s", name, metricNamePattern))
	}
	for _, label := range labels {
		if !ValidName(label) {
			panic(fmt.Sprintf("telemetry: label name %q does not match %s", label, metricNamePattern))
		}
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q buckets not strictly ascending", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != k || !slices.Equal(f.labels, labels) || len(f.buckets) != len(buckets) {
			panic(fmt.Sprintf("telemetry: metric %q redefined as a different %s", name, k))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: k, labels: slices.Clone(labels),
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
	return &Counter{m: r.family(name, help, kindCounter, nil, nil).child()}
}

// CounterVec is a counter family keyed by one or more labels.
type CounterVec struct{ fam *family }

// CounterVec registers (or retrieves) a counter family keyed by the
// given label keys.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{fam: r.family(name, help, kindCounter, labels, nil)}
}

// With returns the child counter for one value per label key, in the
// order the keys were registered.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return &Counter{m: v.fam.child(values...)}
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
	return &Gauge{m: r.family(name, help, kindGauge, nil, nil).child()}
}

// GaugeVec is a gauge family keyed by one or more labels.
type GaugeVec struct{ fam *family }

// GaugeVec registers (or retrieves) a gauge family keyed by the given
// label keys.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{fam: r.family(name, help, kindGauge, labels, nil)}
}

// With returns the child gauge for one value per label key, in the
// order the keys were registered.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return &Gauge{m: v.fam.child(values...)}
}

// Set stores the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	atomic.StoreUint64(&g.m.bits, math.Float64bits(v))
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
	return &Histogram{m: r.family(name, help, kindHistogram, nil, buckets).child()}
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
