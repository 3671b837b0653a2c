package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain builds the daemon the rankd workload drives, as bench/run.sh
// does for a real run.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-test-")
	if err != nil {
		panic(err)
	}
	rankd := filepath.Join(dir, "rankd")
	if out, err := exec.Command("go", "build", "-o", rankd, "groupranking/cmd/rankd").CombinedOutput(); err != nil {
		panic("building rankd: " + err.Error() + "\n" + string(out))
	}
	os.Setenv("BENCH_RANKD", rankd)
	os.Setenv("BENCH_SCRATCH", dir)
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesProgram pins BENCHMARK.json to the tables the
// program reports from: same workloads, same metrics, same units,
// directions and bounds, in the same order.
func TestManifestMatchesProgram(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, m.Workloads[i].Name, w.name)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
	compare := func(kind string, listed []manifestMetric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the program has %d", len(listed), kind, len(defs))
		}
		seen := map[string]bool{}
		for i, d := range defs {
			l := listed[i]
			if l.Name != d.name || l.Unit != d.unit || l.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, l, d)
			}
			if bounded != (l.Bound != nil) || (bounded && (*l.Bound != d.bound || d.bound <= 0 || d.bound > 0.25)) {
				t.Errorf("%s metric %s: bound does not match the program's %g", kind, d.name, d.bound)
			}
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
				t.Errorf("%s metric %+v: bad name, unit or direction", kind, d)
			}
			if seen[d.name] {
				t.Errorf("%s metric %s is listed twice", kind, d.name)
			}
			seen[d.name] = true
		}
	}
	compare("end-to-end", m.EndToEnd, endToEndMetrics, true)
	compare("per-layer", m.PerLayer, perLayerMetrics, false)
	if m.EndToEnd[0].Name != "setup_s" || m.EndToEnd[0].Unit != "s" || m.EndToEnd[0].Better != "lower" {
		t.Errorf("setup_s is not the first end-to-end metric")
	}
}

// checkResult parses what a run printed and requires every listed
// metric, finite and with the listed unit, and nothing else.
func checkResult(t *testing.T, printed []byte, listed []manifestMetric) {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(printed), []byte("\n"))
	var line resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Errorf("result line reports correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
	}
	if len(line.Metrics) != len(listed) {
		t.Errorf("%d metrics printed, %d listed", len(line.Metrics), len(listed))
	}
	for _, l := range listed {
		got, ok := line.Metrics[l.Name]
		switch {
		case !ok:
			t.Errorf("metric %s was not printed", l.Name)
		case got.Unit != l.Unit:
			t.Errorf("metric %s printed with unit %q, listed with %q", l.Name, got.Unit, l.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("metric %s is %v", l.Name, got.Value)
		}
		if !bytes.Contains(printed, []byte("  "+l.Name+" ")) {
			t.Errorf("metric %s is missing from the table above the result line", l.Name)
		}
	}
}

// TestWorkloadsSmoke runs every workload for a ranking or two, timed
// and traced, and checks that each emits every metric BENCHMARK.json
// names. The traced run also covers the calibration pass and the trace
// file.
func TestWorkloadsSmoke(t *testing.T) {
	m := readManifest(t)
	ctx := context.Background()
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			cfg := config{seed: "smoke", seconds: 0.2, out: t.TempDir()}
			if spec.kind != inProcess {
				// The in-process workloads' timed path is the traced
				// run's untraced section; a ranking there takes seconds.
				r, err := timed(ctx, spec, cfg, time.Now(), nil)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := r.print(&out); err != nil {
					t.Fatal(err)
				}
				checkResult(t, out.Bytes(), m.EndToEnd)
				for _, e := range m.EndToEnd {
					if r.metrics[e.Name] <= 0 {
						t.Errorf("end-to-end metric %s is %g; it must never be 0", e.Name, r.metrics[e.Name])
					}
				}
			}
			r, err := traced(ctx, spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := r.print(&out); err != nil {
				t.Fatal(err)
			}
			checkResult(t, out.Bytes(), m.PerLayer)
			trace, err := os.ReadFile(filepath.Join(cfg.out, "trace-"+spec.name+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range []string{spanWorkload, spanRanking, spanCall} {
				if !bytes.Contains(trace, []byte(`"kind":"`+kind+`"`)) {
					t.Errorf("trace has no %s span", kind)
				}
			}
			if r.metrics["ledger.residual_share"] == 0 || r.metrics["host.ref_exp_us"] <= 0 {
				t.Errorf("ledger or host block missing: %v", r.metrics)
			}
		})
	}
}

func TestPercentile(t *testing.T) {
	values := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {90, 9}, {10, 1}, {100, 10}, {1, 1}} {
		if got := percentile(values, c.p); got != c.want {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 95); got != 0 {
		t.Errorf("percentile of nothing = %g", got)
	}
	if got := median(values); got != 5.5 {
		t.Errorf("median = %g, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, StartUS: 0, DurUS: 100},
		{ID: 2, Parent: 1, StartUS: 10, DurUS: 30},  // [10,40)
		{ID: 3, Parent: 1, StartUS: 20, DurUS: 40},  // [20,60) overlaps span 2
		{ID: 4, Parent: 1, StartUS: 90, DurUS: 50},  // [90,140) sticks out of the parent
		{ID: 5, Parent: 3, StartUS: 20, DurUS: 40},  // covers span 3 entirely
		{ID: 6, Parent: 2, StartUS: 500, DurUS: 10}, // outside its parent
	}
	setSelfTimes(spans)
	want := []int64{100 - 50 - 10, 30, 0, 50, 40, 10}
	for i, s := range spans {
		if s.SelfUS != want[i] {
			t.Errorf("span %d: self time %d, want %d", s.ID, s.SelfUS, want[i])
		}
	}
}

func TestPromDelta(t *testing.T) {
	parse := func(text string) promSample {
		s, err := parseProm(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	before := []promSample{
		parse("# HELP journal_appends_total x\n# TYPE journal_appends_total counter\njournal_appends_total 10\nmux_link_connects_total{peer=\"1\"} 1\n"),
		parse("journal_appends_total 5\n"),
	}
	after := []promSample{
		parse("journal_appends_total 25\nmux_link_connects_total{peer=\"1\"} 1\nmux_link_connects_total{peer=\"2\"} 1\ngarbage\n"),
		parse("journal_appends_total 6\njournal_bytes_total 100\n"),
	}
	if got := promDelta(before, after, "journal_appends_total"); got != 16 {
		t.Errorf("appends advanced by %g, want 16", got)
	}
	if got := promDelta(before, after, "journal_bytes_total"); got != 100 {
		t.Errorf("a series new in the second scrape advanced by %g, want 100", got)
	}
	if got := promDelta(before, after, "mux_link_connects_total"); got != 1 {
		t.Errorf("labelled series advanced by %g, want 1", got)
	}
	if got := after[0][`mux_link_connects_total{peer="2"}`]; got != 1 {
		t.Errorf("labelled series read as %g", got)
	}
}
