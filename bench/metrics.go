package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// metricDef names one metric BENCHMARK.json lists.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the share of the parent's median it may worsen by
}

// endToEndMetrics are what a caller of the system sees. Failures are
// not a metric here because the share is 0 on every healthy run: they
// are the "failed" and "correct" fields of the result line. The time
// bounds are as wide as the driver allows because the reference host
// is shared: see "Bounds" in README.md for the spreads measured on it.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"rankings_per_s", "1/s", "higher", 0.25},
	{"rank_p50_s", "s", "lower", 0.25},
	{"rank_p95_s", "s", "lower", 0.25},
	{"cpu_s_per_ranking", "s", "lower", 0.25},
	{"bytes_per_ranking", "B", "lower", 0.02},
	{"rounds_per_ranking", "count", "lower", 0.02},
	{"rss_mb", "MiB", "lower", 0.20},
}

// metrics maps a metric's name to its measured value.
type metrics map[string]float64

// measurement is what one run of a workload in this process found.
type measurement struct {
	title     string
	defs      []metricDef
	metrics   metrics
	samples   int // verified rankings the metrics rest on
	attempted int
	failures  []string // "<ranking id>: <error>", and daemons that did not exit 0
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print reports the failures on standard error and, on w, every metric
// of r.defs by name with its unit, then the result line. A metric that
// was not measured, or is not a finite number, is an error: nothing is
// dropped silently.
func (r measurement) print(w io.Writer) error {
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "FAILED", f)
	}
	failed := len(r.failures)
	line := resultLine{Correct: failed == 0, Attempted: r.attempted, Failed: failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(w, "%s: %d rankings verified of %d attempted, failed_share %g\n",
		r.title, r.samples, r.attempted, float64(failed)/float64(max(r.attempted, 1)))
	for _, d := range r.defs {
		v, ok := r.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured (got %v)", d.name, v)
		}
		fmt.Fprintf(w, "  %-38s %14.6g %-7s (n=%d)\n", d.name, v, d.unit, r.samples)
		line.Metrics[d.name] = metricValue{v, d.unit}
	}
	for name := range r.metrics {
		if !slices.ContainsFunc(r.defs, func(d metricDef) bool { return d.name == name }) {
			return fmt.Errorf("metric %s is measured but not declared", name)
		}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

// endToEnd derives the caller-visible metrics of one timed section.
func endToEnd(sec section, setupS float64) metrics {
	n := float64(len(sec.verified))
	lat := sec.latencies()
	bytes, rounds := 0.0, 0.0
	for _, o := range sec.verified {
		bytes += float64(o.bytes)
		rounds += float64(o.rounds)
	}
	return metrics{
		"setup_s":            setupS,
		"rankings_per_s":     n / sec.wall,
		"rank_p50_s":         median(lat),
		"rank_p95_s":         percentile(lat, 95),
		"cpu_s_per_ranking":  sec.cpu / n,
		"bytes_per_ranking":  bytes / n,
		"rounds_per_ranking": rounds / n,
		"rss_mb":             median(sec.rss),
	}
}
