package cli

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"groupranking"
	"groupranking/internal/core"
)

// resolve registers every flag group on a fresh flag set, parses args
// and resolves them, the way rankparty does.
func resolve(t *testing.T, args ...string) (Settings, error) {
	t.Helper()
	var f Flags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f.Protocol(fs)
	f.Observability(fs)
	f.Faults(fs)
	f.Deployment(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f.Resolve()
}

var mesh = []string{"-addrs", "a,b,c", "-me", "1"}

func TestResolve(t *testing.T) {
	cases := []struct {
		name  string
		args  []string
		want  string // error substring; empty means accepted
		check func(t *testing.T, s Settings)
	}{
		{name: "omitted flags take core's defaults", check: func(t *testing.T, s Settings) {
			o := s.Options
			if o.GroupName != core.DefaultGroupName || o.K != core.DefaultK ||
				o.D1 != core.DefaultD1 || o.D2 != core.DefaultD2 || o.H != core.DefaultH {
				t.Errorf("group %q k=%d d1=%d d2=%d h=%d, want core's %q k=%d d1=%d d2=%d h=%d",
					o.GroupName, o.K, o.D1, o.D2, o.H,
					core.DefaultGroupName, core.DefaultK, core.DefaultD1, core.DefaultD2, core.DefaultH)
			}
			if o.Sorter != core.SorterUnlinkable || o.Timeout != 0 || o.Workers != 0 || o.Seed != "" {
				t.Errorf("sorter %v timeout %v workers %d seed %q, want the zero settings", o.Sorter, o.Timeout, o.Workers, o.Seed)
			}
			if o.Recovery != nil || o.Observer != nil {
				t.Error("an unasked-for Recovery or Observer")
			}
			if len(s.Addrs) != 3 || s.Me != 1 {
				t.Errorf("mesh %v me %d", s.Addrs, s.Me)
			}
		}},
		{name: "unlinkable parses", args: []string{"-sorter", "unlinkable"}, check: func(t *testing.T, s Settings) {
			if s.Options.Sorter != core.SorterUnlinkable {
				t.Errorf("sorter %v", s.Options.Sorter)
			}
		}},
		{name: "secret-sharing parses", args: []string{"-sorter", "secret-sharing"}, check: func(t *testing.T, s Settings) {
			if s.Options.Sorter != core.SorterSecretSharing {
				t.Errorf("sorter %v", s.Options.Sorter)
			}
		}},
		{name: "bogus sorter", args: []string{"-sorter", "secretsharing"}, want: "unknown sorter"},
		{name: "fault seed alone injects nothing", args: []string{"-fault-seed", "7"}, check: func(t *testing.T, s Settings) {
			if s.Options.Faults != nil {
				t.Errorf("fault plan %+v without a fault", s.Options.Faults)
			}
		}},
		{name: "a rate makes a plan", args: []string{"-fault-seed", "7", "-fault-drop", "0.1"}, check: func(t *testing.T, s Settings) {
			if p := s.Options.Faults; p == nil || p.Seed != 7 || p.Drop != 0.1 || len(p.Rules) != 0 {
				t.Errorf("fault plan %+v, want seed 7, drop 0.1, no rules", p)
			}
		}},
		{name: "a crash makes a plan", args: []string{"-fault-crash-party", "0", "-fault-crash-round", "3"}, check: func(t *testing.T, s Settings) {
			want := groupranking.CrashAt(0, 3)
			if p := s.Options.Faults; p == nil || len(p.Rules) != 1 || p.Rules[0] != want {
				t.Errorf("fault plan %+v, want the one rule %+v", p, want)
			}
		}},
		{name: "journal enables recovery", args: []string{"-journal", "dir", "-grace", "5s"}, check: func(t *testing.T, s Settings) {
			if r := s.Options.Recovery; r == nil || r.Dir != "dir" || r.Grace != 5*time.Second {
				t.Errorf("recovery %+v", r)
			}
		}},
		{name: "admin brings telemetry and an observer", args: []string{"-admin", "127.0.0.1:0"}, check: func(t *testing.T, s Settings) {
			if s.Options.Observer.Metrics() == nil {
				t.Error("-admin without an Observer and its metric store")
			}
		}},
		{name: "grace without journal", args: []string{"-grace", "5s"}, want: "-grace needs -journal"},
		{name: "negative timeout", args: []string{"-timeout", "-1s"}, want: "Timeout"},
		{name: "negative workers", args: []string{"-workers", "-1"}, want: "workers"},
		{name: "negative grace", args: []string{"-journal", "dir", "-grace", "-1s"}, want: "Grace"},
		{name: "two addresses", args: []string{"-addrs", "a,b"}, want: "three addresses"},
		{name: "me outside the mesh", args: []string{"-me", "3"}, want: "outside the address list"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := resolve(t, append(append([]string(nil), mesh...), tc.args...)...)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("refused: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("accepted, want an error mentioning %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if tc.check != nil {
				tc.check(t, s)
			}
		})
	}
}

// TestFaultPlanExtraRules: a binary's own rule makes a plan on its
// own, seeded by -fault-seed.
func TestFaultPlanExtraRules(t *testing.T) {
	var f Flags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Faults(fs)
	if err := fs.Parse([]string{"-fault-seed", "9"}); err != nil {
		t.Fatal(err)
	}
	rule := groupranking.FaultRule{Round: -1, From: 1, To: -1}
	if p := f.FaultPlan(rule); p == nil || p.Seed != 9 || len(p.Rules) != 1 || p.Rules[0] != rule {
		t.Errorf("plan %+v, want seed 9 and the one extra rule", p)
	}
	if p := f.FaultPlan(); p != nil {
		t.Errorf("plan %+v without a fault", p)
	}
}
