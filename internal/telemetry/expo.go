package telemetry

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
)

// Prometheus text exposition (format version 0.0.4): HELP and TYPE
// comment lines followed by one sample line per series, histograms
// expanded into cumulative _bucket{le=...} series plus _sum and _count.
// Families export in registration order and children in first-use
// order, so successive scrapes diff cleanly.

// WritePrometheus renders every registered family. It reads all values
// atomically but not as one snapshot: a scrape racing live updates sees
// each series at some point during the write, which is the normal
// Prometheus contract.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	for _, f := range fams {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(w io.Writer) error {
	f.mu.Lock()
	children := slices.Clone(f.order)
	f.mu.Unlock()
	if len(children) == 0 {
		return nil
	}
	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
		return err
	}
	for _, m := range children {
		if err := f.writeChild(w, m); err != nil {
			return err
		}
	}
	return nil
}

// renderLabels renders one child's label set as the exposition writes
// it after the metric name: {k1="v1",k2="v2"}, or "" without labels.
func renderLabels(keys, values []string) string {
	if len(keys) == 0 {
		return ""
	}
	pairs := make([]string, len(keys))
	for i, k := range keys {
		pairs[i] = fmt.Sprintf("%s=%q", k, values[i])
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

func (f *family) writeChild(w io.Writer, m *metric) error {
	switch f.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, m.labels, m.val.Load())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, m.labels,
			fmtFloat(math.Float64frombits(m.bits.Load())))
		return err
	case kindHistogram:
		// Cumulative buckets: each le series counts everything at or
		// below its bound, ending with the mandatory +Inf total.
		var cum int64
		for i, bound := range f.buckets {
			cum += atomic.LoadInt64(&m.hcounts[i])
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", f.name, fmtFloat(bound), cum); err != nil {
				return err
			}
		}
		cum += atomic.LoadInt64(&m.hcounts[len(f.buckets)])
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", f.name, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n", f.name,
			fmtFloat(math.Float64frombits(m.hsum.Load()))); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count %d\n", f.name, m.val.Load())
		return err
	}
	return fmt.Errorf("telemetry: family %q has unknown kind", f.name)
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// escapeHelp escapes the two characters the format forbids raw in HELP
// text.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
