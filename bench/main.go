// Command bench is this repository's performance benchmark: four
// ranking workloads driven only through the public entry points, every
// ranking checked against the plaintext ground truth, end-to-end
// metrics from an untraced run and per-layer metrics from a separate
// traced one. See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// config is one invocation's flags.
type config struct {
	workload  string
	seed      string
	seconds   float64
	trace     bool
	out       string
	setupOnly bool
}

func run(ctx context.Context, args []string) error {
	mode := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		mode, args = args[0], args[1:]
	}
	var cfg config
	fs := flag.NewFlagSet("bench "+mode, flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run; empty runs all four, each in its own process")
	fs.StringVar(&cfg.seed, "seed", "1", "seed the generated inputs derive from")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured section")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = timed run reporting the end-to-end metrics")
	fs.StringVar(&cfg.out, "out", "", "traced run: directory for trace-<workload>.jsonl (default: the benchmark's scratch directory)")
	fs.BoolVar(&cfg.setupOnly, "setup-only", false, "set up, print setup_s and exit (the timed run starts these itself)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if cfg.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	cfg.trace = *trace == 1 || mode == "trace"
	switch mode {
	case "run", "trace":
		if cfg.workload == "" {
			return eachWorkload(ctx, cfg)
		}
		spec, err := workloadByName(cfg.workload)
		if err != nil {
			return err
		}
		switch {
		case cfg.setupOnly:
			return setupProbe(ctx, spec, cfg)
		case cfg.trace:
			return tracedRun(ctx, spec, cfg)
		default:
			return timedRun(ctx, spec, cfg)
		}
	case "calibrate":
		return printCalibration(os.Stdout, cfg)
	case "check":
		return check(ctx, cfg)
	default:
		return fmt.Errorf("unknown command %q (run, trace, calibrate, check)", mode)
	}
}

// self starts this program again with the given arguments. Every
// workload runs in a process of its own, so that no run inherits
// another's lazily built tables or resident memory.
func self(ctx context.Context, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Stderr = os.Stderr
	return cmd
}

func (cfg config) args(workload string) []string {
	args := []string{"--workload", workload, "--seed", cfg.seed, "--seconds", fmt.Sprint(cfg.seconds)}
	if cfg.trace {
		args = append(args, "--trace", "1")
	}
	if cfg.out != "" {
		args = append(args, "--out", cfg.out)
	}
	return args
}

// eachWorkload runs all four workloads one after another.
func eachWorkload(ctx context.Context, cfg config) error {
	var errs []error
	for _, w := range workloads {
		cmd := self(ctx, cfg.args(w.name)...)
		cmd.Stdout = os.Stdout
		if err := cmd.Run(); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", w.name, err))
		}
	}
	return errors.Join(errs...)
}

// setupProbes is how many extra processes a timed run sets up and
// throws away, so that setup_s is a median of this many plus one.
const setupProbes = 2

// setupProbe is one throw-away set-up: it prints how long it took.
func setupProbe(ctx context.Context, spec workloadSpec, cfg config) error {
	b, err := setUp(ctx, spec, cfg.seed, processStart)
	if err != nil {
		return err
	}
	defer b.close()
	if err := b.stopMesh(); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(b.setupS)
}

// timedRun measures the end-to-end metrics of one workload. It first
// sets up in throw-away processes, so that setup_s is a median.
func timedRun(ctx context.Context, spec workloadSpec, cfg config) error {
	setups := make([]float64, 0, setupProbes+1)
	for i := 0; i < setupProbes; i++ {
		raw, err := self(ctx, append(cfg.args(spec.name), "--setup-only")...).Output()
		if err != nil {
			return fmt.Errorf("set-up probe: %w", err)
		}
		var s float64
		if err := json.Unmarshal(raw, &s); err != nil {
			return fmt.Errorf("set-up probe printed %q: %w", raw, err)
		}
		setups = append(setups, s)
	}
	// This process has so far only waited for the probes, so its own
	// set-up is as cold as theirs, counted from here.
	r, err := timed(ctx, spec, cfg, time.Now(), setups)
	if err != nil {
		return err
	}
	return r.print(os.Stdout)
}

// timed sets up and measures one timed section in this process: no
// Observer, no Telemetry, no admin endpoint. Its own set-up is counted
// from since; setups are the set-up times other processes measured, and
// setup_s is the median of all of them.
func timed(ctx context.Context, spec workloadSpec, cfg config, since time.Time, setups []float64) (measurement, error) {
	r := measurement{title: spec.name, defs: endToEndMetrics}
	b, err := setUp(ctx, spec, cfg.seed, since)
	if err != nil {
		return r, err
	}
	defer b.close()
	sec, err := b.run(ctx, 0, cfg.duration(1), 0)
	if err != nil {
		return r, err
	}
	r.failures = sec.failures
	if err := b.stopMesh(); err != nil {
		r.failures = append(r.failures, err.Error())
	}
	if len(sec.verified) == 0 {
		return r, fmt.Errorf("no ranking was verified; first failure: %v", r.failures)
	}
	r.metrics = endToEnd(sec, median(append(setups, b.setupS)))
	r.samples, r.attempted = len(sec.verified), sec.attempted
	return r, nil
}

// duration is the given share of the measured section's length.
func (cfg config) duration(share float64) time.Duration {
	return time.Duration(share * cfg.seconds * float64(time.Second))
}
