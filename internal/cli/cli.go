// Package cli is the command-line front end of grouprank, rankparty
// and rankd. Every flag the three binaries share is registered here
// once, with core's defaults, and resolved and checked by one function
// (Flags.Resolve), so the binaries cannot disagree on a default, a
// spelling or an exit code. Each binary registers the groups it needs,
// adds its own flags, and exits 2 on anything Resolve refuses.
package cli

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"groupranking"
	"groupranking/internal/core"
	"groupranking/internal/telemetry"
)

// Flags holds the values of the shared flags one binary registered.
// The zero value registers nothing; call the group methods before the
// flag set is parsed and Resolve after.
type Flags struct {
	opts                                 groupranking.Options
	plan                                 groupranking.FaultPlan
	sorter, trace, addrs, journal, admin string
	metrics                              bool
	crashParty, crashRound, me           int
	grace                                time.Duration
	observability, faults, deployment    bool
}

// Protocol registers -group -k -d1 -d2 -h -sorter -seed -timeout and
// -workers. Every party of a run must agree on all but the last three;
// the session handshake aborts any party that disagrees.
func (f *Flags) Protocol(fs *flag.FlagSet) {
	fs.StringVar(&f.opts.GroupName, "group", core.DefaultGroupName, "DDH group (modp-1024/2048/3072, secp160r1/224r1/256r1, toy-dl-256)")
	fs.IntVar(&f.opts.K, "k", core.DefaultK, "top-k cut (capped at the participant count)")
	fs.IntVar(&f.opts.D1, "d1", core.DefaultD1, "attribute value bits")
	fs.IntVar(&f.opts.D2, "d2", core.DefaultD2, "weight bits")
	fs.IntVar(&f.opts.H, "h", core.DefaultH, "mask bits")
	fs.StringVar(&f.sorter, "sorter", core.SorterUnlinkable.String(),
		fmt.Sprintf("phase-2 protocol: %s or %s", core.SorterUnlinkable, core.SorterSecretSharing))
	fs.StringVar(&f.opts.Seed, "seed", "", "deterministic seed (empty = a fresh seed drawn by this process, or the journaled one with -journal)")
	fs.DurationVar(&f.opts.Timeout, "timeout", 0, "run deadline and, for a distributed party, per-receive bound; expiry aborts cleanly (0 = none in process, 2m for a distributed party)")
	f.Workers(fs)
}

// Workers registers -workers alone, for a binary that takes no other
// protocol flag (rankd: the protocol settings arrive per session).
func (f *Flags) Workers(fs *flag.FlagSet) {
	fs.IntVar(&f.opts.Workers, "workers", 0, "goroutines per party for crypto hot loops (0 = all CPUs, 1 = serial)")
}

// Observability registers -trace and -metrics; Report writes them.
func (f *Flags) Observability(fs *flag.FlagSet) {
	f.observability = true
	fs.StringVar(&f.trace, "trace", "", "write a JSONL span trace to this file (- for stderr); written even on abort")
	fs.BoolVar(&f.metrics, "metrics", false, "print the per-phase observability summary table after the run")
}

// Faults registers the eight -fault-* flags; FaultPlan builds the
// schedule from them.
func (f *Flags) Faults(fs *flag.FlagSet) {
	f.faults = true
	fs.Int64Var(&f.plan.Seed, "fault-seed", 0, "seed for the fault-injection schedule (reproducible chaos)")
	fs.Float64Var(&f.plan.Drop, "fault-drop", 0, "per-message drop probability [0, 1]")
	fs.Float64Var(&f.plan.Duplicate, "fault-dup", 0, "per-message duplication probability [0, 1]")
	fs.Float64Var(&f.plan.Reorder, "fault-reorder", 0, "per-message reorder probability [0, 1]")
	fs.Float64Var(&f.plan.Corrupt, "fault-corrupt", 0, "per-message corruption probability [0, 1]")
	fs.Float64Var(&f.plan.Delay, "fault-delay", 0, "per-message delay probability [0, 1]")
	fs.IntVar(&f.crashParty, "fault-crash-party", -1, "party index to crash (-1 = none; 0 = initiator)")
	fs.IntVar(&f.crashRound, "fault-crash-round", 0, "round at which the crashed party dies")
}

// Deployment registers -addrs -me -journal -grace and -admin, the
// flags of a process that is one slot of a TCP mesh.
func (f *Flags) Deployment(fs *flag.FlagSet) {
	f.deployment = true
	fs.StringVar(&f.addrs, "addrs", "", "comma-separated mesh listen addresses of every party in index order; index 0 is the initiator")
	fs.IntVar(&f.me, "me", -1, "this process's index into -addrs (0 = initiator)")
	fs.StringVar(&f.journal, "journal", "", "crash recovery: journal sessions durably into this directory; a restart with the same flags resumes them")
	fs.DurationVar(&f.grace, "grace", 0, "how long a disconnected peer may take to reconnect before it is blamed (0 = 15s; needs -journal)")
	fs.StringVar(&f.admin, "admin", "", "serve live telemetry on this address while running: /metrics (Prometheus text), /healthz (per-peer link state), /debug/pprof")
}

// Settings is what the registered flags resolve to.
type Settings struct {
	// Options has an Observer with -trace, -metrics or -admin and a
	// Telemetry registry with -admin.
	Options groupranking.Options
	// Addrs and Me are the mesh and this process's slot in it.
	Addrs []string
	Me    int
}

// Resolve checks the registered flags and resolves them. It refuses an
// unknown -sorter, -grace without -journal, a mesh of fewer than three
// addresses or a -me outside it, and whatever Runtime.Validate or
// RecoveryOptions.Validate refuses.
func (f *Flags) Resolve() (Settings, error) {
	s := Settings{Options: f.opts}
	var err error
	if s.Options.Sorter, err = core.ParseSorter(f.sorter); err != nil {
		return Settings{}, err
	}
	s.Options.Faults = f.FaultPlan()
	if f.deployment {
		s.Addrs, s.Me = strings.Split(f.addrs, ","), f.me
		if f.addrs == "" || len(s.Addrs) < 3 {
			return Settings{}, fmt.Errorf("need -addrs with the initiator plus at least two participants (three addresses)")
		}
		if f.me < 0 || f.me >= len(s.Addrs) {
			return Settings{}, fmt.Errorf("-me %d outside the address list (%d entries)", f.me, len(s.Addrs))
		}
	}
	if f.journal != "" {
		s.Options.Recovery = &groupranking.RecoveryOptions{Dir: f.journal, Grace: f.grace}
	} else if f.grace != 0 {
		return Settings{}, fmt.Errorf("-grace needs -journal (crash recovery is off without a journal directory)")
	}
	if err := s.Options.Runtime.Validate(); err != nil {
		return Settings{}, err
	}
	if err := s.Options.Recovery.Validate(); err != nil {
		return Settings{}, err
	}
	if f.admin != "" {
		s.Options.Telemetry = groupranking.NewTelemetry()
	}
	// The admin endpoint serves the Observer's phase counters too, so a
	// binary with the observability flags gets one under -admin.
	if f.trace != "" || f.metrics || (f.observability && f.admin != "") {
		s.Options.Observer = groupranking.NewObserver()
	}
	return s, nil
}

// FaultPlan builds the fault-injection schedule the fault flags ask
// for, plus the binary's own extra rules. It is nil when no rate, no
// crash and no extra rule is set: -fault-seed alone injects nothing.
func (f *Flags) FaultPlan(extra ...groupranking.FaultRule) *groupranking.FaultPlan {
	plan := f.plan
	if f.faults && f.crashParty >= 0 {
		plan.Rules = append(plan.Rules, groupranking.CrashAt(f.crashParty, f.crashRound))
	}
	plan.Rules = append(plan.Rules, extra...)
	if plan.Drop <= 0 && plan.Duplicate <= 0 && plan.Reorder <= 0 && plan.Corrupt <= 0 && plan.Delay <= 0 && len(plan.Rules) == 0 {
		return nil
	}
	return &plan
}

// ServeAdmin starts the -admin endpoint over tel (the registry Resolve
// created) and the extra collectors, appended to /metrics; without
// -admin it does nothing. The returned stop closes the server.
func (f *Flags) ServeAdmin(tel *groupranking.Telemetry, collect ...func(io.Writer) error) (stop func(), err error) {
	if f.admin == "" {
		return func() {}, nil
	}
	ln, err := net.Listen("tcp", f.admin)
	if err != nil {
		return nil, fmt.Errorf("-admin: %w", err)
	}
	srv := &http.Server{Handler: telemetry.AdminMux(tel, collect...)}
	go srv.Serve(ln)
	log.Printf("admin endpoint on http://%s (/metrics, /healthz, /debug/pprof)", ln.Addr())
	return func() { srv.Close() }, nil
}

// Report writes obs out as the observability flags ask: the JSONL span
// trace to -trace (- for stderr) and, with -metrics, the per-phase
// summary to summary. Call it on abort too: the Observer outlives a
// failed run, so the typed abort comes with the timeline that led to
// it.
func (f *Flags) Report(obs *groupranking.Observer, summary io.Writer) {
	if f.trace != "" {
		if err := writeTrace(obs, f.trace); err != nil {
			log.Printf("trace: %v", err)
		}
	}
	if f.metrics {
		fmt.Fprintln(summary)
		if err := obs.WriteSummary(summary); err != nil {
			log.Printf("metrics: %v", err)
		}
	}
}

func writeTrace(obs *groupranking.Observer, path string) error {
	if path == "-" {
		return obs.WriteJSONL(os.Stderr)
	}
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteJSONL(file); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}
