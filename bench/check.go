package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"text/tabwriter"
)

// printCalibration runs the calibration pass alone, for the group the
// named workload resolves (default: the first workload's).
func printCalibration(w io.Writer, cfg config) error {
	spec := workloads[0]
	if cfg.workload != "" {
		var err error
		if spec, err = workloadByName(cfg.workload); err != nil {
			return err
		}
	}
	dir, err := os.MkdirTemp(os.Getenv("BENCH_SCRATCH"), "calibrate-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	units, err := calibrate(spec.groupName(), spec.n, dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "unit costs on this host, group %s as group.ByName resolves it, n=%d\n", spec.groupName(), spec.n)
	for _, d := range perLayerMetrics {
		if v, ok := units[d.name]; ok {
			fmt.Fprintf(w, "  %-38s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	return nil
}

// timedSet runs every workload's timed run once, each in its own
// process, and returns their result lines by workload.
func timedSet(ctx context.Context, cfg config) (map[string]resultLine, error) {
	set := map[string]resultLine{}
	for _, w := range workloads {
		out, err := self(ctx, cfg.args(w.name)...).Output()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var line resultLine
		if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
			return nil, fmt.Errorf("%s: last line of output: %w", w.name, err)
		}
		set[w.name] = line
	}
	return set, nil
}

// setupSlackS is the absolute difference in setup_s that check lets
// pass whatever its share: party_tcp_ss sets up in ~0.14 s, where one
// cold page cache is worth more than the bound.
const setupSlackS = 0.2

// check runs the full timed set twice on the same code and compares
// the two: every end-to-end metric must agree within its bound and no
// ranking may have failed.
func check(ctx context.Context, cfg config) error {
	cfg.trace = false
	first, err := timedSet(ctx, cfg)
	if err != nil {
		return err
	}
	second, err := timedSet(ctx, cfg)
	if err != nil {
		return err
	}
	var bad []string
	tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tfirst\tsecond\tdifference\tbound\t")
	for _, w := range workloads {
		a, b := first[w.name], second[w.name]
		if !a.Correct || !b.Correct {
			bad = append(bad, fmt.Sprintf("%s: %d and %d rankings failed", w.name, a.Failed, b.Failed))
		}
		for _, d := range endToEndMetrics {
			va, vb := a.Metrics[d.name].Value, b.Metrics[d.name].Value
			verdict := ""
			if math.Abs(vb-va)/va > d.bound && !(d.name == "setup_s" && math.Abs(vb-va) <= setupSlackS) {
				verdict = "OVER"
				bad = append(bad, fmt.Sprintf("%s %s: %g vs %g", w.name, d.name, va, vb))
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%+.2f%%\t%.0f%%\t%s\n",
				w.name, d.name, va, d.unit, vb, d.unit, 100*(vb-va)/va, 100*d.bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(bad) > 0 {
		slices.Sort(bad)
		return errors.New("the two sets disagree:\n  " + strings.Join(bad, "\n  "))
	}
	return nil
}
