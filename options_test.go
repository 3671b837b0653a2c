package groupranking

import (
	"context"
	"strings"
	"testing"
	"time"

	"groupranking/internal/core"
)

// The shared option resolver backs every public entry point; these
// tests pin its defaulting and its K-style validation errors.

func TestSortOptionsValidation(t *testing.T) {
	cases := []struct {
		name string
		opts SortOptions
		want string
	}{
		{"bits too large", SortOptions{Bits: 65}, "outside [1, 64]"},
		{"bits negative", SortOptions{Bits: -3}, "outside [1, 64]"},
		{"negative workers", SortOptions{Bits: 8, Runtime: Runtime{Workers: -1}}, "negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := UnlinkableSort(context.Background(), []uint64{3, 1, 2}, tc.opts)
			if err == nil {
				t.Fatal("invalid options accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestSortOptionsDefaults(t *testing.T) {
	o, err := SortOptions{}.withDefaults([]uint64{5, 200, 7})
	if err != nil {
		t.Fatal(err)
	}
	if g, err := core.GroupByName(o.GroupName); err != nil || g.Name() != core.DefaultGroupName {
		t.Errorf("group %q resolved to %v (%v), want %q", o.GroupName, g, err, core.DefaultGroupName)
	}
	if o.Bits != 8 { // 200 needs 8 bits
		t.Errorf("bits derived as %d, want 8", o.Bits)
	}
	if o.Seed == "" {
		t.Error("no seed drawn")
	}
	if _, err := (SortOptions{}).withDefaults([]uint64{42}); err == nil {
		t.Error("single-value sort accepted")
	}
}

func TestSortPartyOptionsRequireBits(t *testing.T) {
	_, err := UnlinkableSortParty(context.Background(), []string{"a", "b"}, 0, 1, SortOptions{})
	if err == nil || !strings.Contains(err.Error(), "Bits") {
		t.Fatalf("missing Bits not diagnosed: %v", err)
	}
	if o, err := (SortOptions{Bits: 8}).withPartyDefaults(); err != nil {
		t.Fatal(err)
	} else {
		if o.Timeout != core.DefaultTimeout {
			t.Errorf("timeout defaulted to %v, want %v", o.Timeout, core.DefaultTimeout)
		}
		if o.Seed != "" {
			t.Error("party defaults drew a seed (UnlinkableSortParty draws it, with fixedbig.DrawSeed)")
		}
	}
}

// TestRuntimeOptionsValidation pins the entry-point rejection of
// negative runtime settings: silently defaulting them would flip their
// meaning (a negative Timeout is not "no deadline"), so every public
// entry point fails loudly instead — with the same meaning on the
// command line, whose flags internal/cli resolves through
// Runtime.Validate.
func TestRuntimeOptionsValidation(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"negative timeout", Options{Runtime: Runtime{Timeout: -time.Second}}, "Timeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.opts.params(demoQuestionnaire(t), 3)
			if err == nil {
				t.Fatal("invalid runtime options accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// The sort options reject a negative Timeout on both the in-process
	// and the distributed resolution paths.
	if _, err := UnlinkableSort(context.Background(), []uint64{3, 1, 2}, SortOptions{Runtime: Runtime{Timeout: -time.Second}}); err == nil || !strings.Contains(err.Error(), "Timeout") {
		t.Errorf("in-process sort accepted a negative timeout: %v", err)
	}
	if _, err := (SortOptions{Bits: 8, Runtime: Runtime{Timeout: -time.Second}}).withPartyDefaults(); err == nil || !strings.Contains(err.Error(), "Timeout") {
		t.Errorf("party sort defaults accepted a negative timeout: %v", err)
	}
}

// TestRecoveryOptionsValidation pins the one recovery check the party
// entry points, the rankd daemon config and internal/cli share: a
// negative Grace would blame a reconnecting peer instantly, so it is
// refused; nil (recovery off) and a zero Grace (the default) pass.
func TestRecoveryOptionsValidation(t *testing.T) {
	for _, r := range []*RecoveryOptions{nil, {Dir: "d"}, {Dir: "d", Grace: time.Second}} {
		if err := r.Validate(); err != nil {
			t.Errorf("%+v refused: %v", r, err)
		}
	}
	t.Run("negative grace", func(t *testing.T) {
		opts := Options{Recovery: &RecoveryOptions{Dir: "d", Grace: -time.Second}}
		if err := opts.Recovery.Validate(); err == nil || !strings.Contains(err.Error(), "Grace") {
			t.Errorf("Validate: %v, want an error mentioning Grace", err)
		}
		if _, err := opts.params(demoQuestionnaire(t), 3); err == nil || !strings.Contains(err.Error(), "Grace") {
			t.Errorf("params: %v, want an error mentioning Grace", err)
		}
	})
}

// TestRankRefusesPartyKnobs: the in-process Rank has no journal and no
// runtime to measure, so the party-only knobs are refused, not dropped.
func TestRankRefusesPartyKnobs(t *testing.T) {
	cases := []struct {
		name string
		set  func(*Options)
		want string
	}{
		{"recovery set", func(o *Options) { o.Recovery = &RecoveryOptions{Dir: "d"} }, "Recovery"},
		{"telemetry set", func(o *Options) { o.Telemetry = NewTelemetry() }, "Telemetry"},
	}
	q := demoQuestionnaire(t)
	crit, profiles := demoData(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := fastOpts("party-knobs")
			tc.set(&opts)
			_, err := Rank(context.Background(), q, crit, profiles, opts)
			if err == nil {
				t.Fatal("party-only knob accepted by Rank")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestUnlinkableSortStats(t *testing.T) {
	res, err := UnlinkableSort(context.Background(), []uint64{42, 97, 13}, SortOptions{
		GroupName: "toy-dl-256", Bits: 8, Seed: "sort-stats",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 1, 3}
	for i, r := range res.Ranks {
		if r != want[i] {
			t.Errorf("rank[%d] = %d, want %d", i, r, want[i])
		}
	}
	if res.BytesOnWire <= 0 {
		t.Errorf("BytesOnWire = %d, want > 0", res.BytesOnWire)
	}
	if res.Rounds <= 0 {
		t.Errorf("Rounds = %d, want > 0", res.Rounds)
	}
}
