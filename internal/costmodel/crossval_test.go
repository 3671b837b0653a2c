package costmodel_test

// Cross-validation of the analytic cost model against instrumented
// protocol runs: the observability registry counts every group
// exponentiation and every message a party actually performs, and this
// test asserts those measurements match the model's closed forms
// exactly — ParticipantExps per participant, the synthetic trace's
// messages per party — for several (n, m) configurations on both a DL
// and an EC group. Byte totals are checked against the synthetic trace
// within a documented tolerance (below), because the phase-1 dot product
// draws its matrix dimension s uniformly from [5, 10] while the synthetic
// trace fixes s = 8: each participant's request can differ by at most
// |s−8|·d ≤ 3d field elements, everything else is byte-exact.

import (
	"context"
	"fmt"
	"testing"

	"groupranking/internal/core"
	"groupranking/internal/costmodel"
	"groupranking/internal/fixedbig"
	"groupranking/internal/group"
	"groupranking/internal/obsv"
	"groupranking/internal/workload"
)

// crossValConfigs are chosen so phase 3 is predictable: K = 3 bodies
// with distinct gains (checked below), and T = M/2 to match the
// synthetic trace's dot-product dimension d = m + m/2 + 1.
var crossValConfigs = []struct {
	n, m, d1, d2, h int
}{
	{n: 4, m: 2, d1: 4, d2: 3, h: 4},
	{n: 5, m: 4, d1: 5, d2: 3, h: 5},
	{n: 6, m: 2, d1: 4, d2: 4, h: 4},
}

func TestCrossValidation(t *testing.T) {
	toy, err := group.ByName("toy-dl-256")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []group.Group{toy, group.Secp160r1()} {
		for _, cfg := range crossValConfigs {
			cfg := cfg
			t.Run(fmt.Sprintf("%s/n=%d,m=%d", g.Name(), cfg.n, cfg.m), func(t *testing.T) {
				crossValidate(t, g, cfg.n, cfg.m, cfg.d1, cfg.d2, cfg.h, 1)
			})
		}
	}
}

// TestCrossValidationParallelWorkers re-runs one configuration per
// group with a multi-goroutine worker pool: the fixed-base
// precomputation and the parallel kernels must not change a single
// exponentiation or message count, so the exact-match assertions below
// hold unchanged.
func TestCrossValidationParallelWorkers(t *testing.T) {
	toy, err := group.ByName("toy-dl-256")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []group.Group{toy, group.Secp160r1()} {
		cfg := crossValConfigs[0]
		t.Run(g.Name(), func(t *testing.T) {
			crossValidate(t, g, cfg.n, cfg.m, cfg.d1, cfg.d2, cfg.h, 4)
		})
	}
}

func crossValidate(t *testing.T, g group.Group, n, m, d1, d2, h, workers int) {
	params := core.Params{
		N: n, M: m, T: m / 2, D1: d1, D2: d2, H: h, K: 3,
		Group: g, Workers: workers,
	}
	in := crossValInputs(t, params, "crossval-"+g.Name())
	reg := obsv.NewRegistry()
	ctx := obsv.WithRegistry(context.Background(), reg)
	result, fab, err := core.RunCtx(ctx, params, in, "crossval-run-"+g.Name(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The byte prediction assumes exactly K submission bodies, which
	// needs distinct ranks; the seeds above produce distinct gains.
	seen := make(map[int]bool)
	for _, r := range result.Ranks {
		if seen[r] {
			t.Fatalf("ranks not distinct (%v): pick another workload seed", result.Ranks)
		}
		seen[r] = true
	}

	l := params.BetaBits()
	setting := costmodel.Setting{N: n, M: m, D1: d1, D2: d2, H: h}
	fieldBytes := (l + 33 + 7) / 8
	trace := costmodel.OursTrace(setting, l, g, fieldBytes)

	// Exponentiations: exact, per participant. The initiator touches no
	// group at all.
	wantExps := costmodel.ParticipantExps(n, l)
	for j := 1; j <= n; j++ {
		if got := reg.PartyTotal(j, obsv.OpGroupExp); got != wantExps {
			t.Errorf("participant %d: %d group exps, model says %d", j, got, wantExps)
		}
	}
	if got := reg.PartyTotal(0, obsv.OpGroupExp); got != 0 {
		t.Errorf("initiator performed %d group exps, want 0", got)
	}

	// Messages: exact, per party, from the synthetic trace's event
	// counts — and the registry must agree with the fabric's counters.
	stats := fab.Stats()
	wantMsgs := make([]int64, n+1)
	for _, ev := range trace {
		wantMsgs[ev.From]++
	}
	for p := 0; p <= n; p++ {
		if stats.MessagesSent[p] != wantMsgs[p] {
			t.Errorf("party %d sent %d messages, model says %d", p, stats.MessagesSent[p], wantMsgs[p])
		}
		if got := reg.PartyTotal(p, obsv.OpMsgSent); got != stats.MessagesSent[p] {
			t.Errorf("party %d: registry counted %d msgs, fabric %d", p, got, stats.MessagesSent[p])
		}
		if got := reg.PartyTotal(p, obsv.OpByteSent); got != stats.BytesSent[p] {
			t.Errorf("party %d: registry counted %d bytes, fabric %d", p, got, stats.BytesSent[p])
		}
	}

	// Bytes: total within the documented phase-1 tolerance of
	// n · 3d · fieldBytes (s ∈ [5,10] vs the synthetic s = 8).
	var predicted int64
	for _, ev := range trace {
		predicted += int64(ev.Bytes)
	}
	measured := stats.TotalBytes()
	d := m + m/2 + 1
	tol := int64(n * 3 * d * fieldBytes)
	if diff := measured - predicted; diff > tol || diff < -tol {
		t.Errorf("total bytes %d, model says %d (tolerance ±%d)", measured, predicted, tol)
	}
}

func crossValInputs(t *testing.T, params core.Params, seed string) core.Inputs {
	t.Helper()
	q, err := workload.Uniform(params.M, params.T)
	if err != nil {
		t.Fatal(err)
	}
	rng := fixedbig.NewDRBG(seed)
	crit, err := workload.RandomCriterion(q, params.D1, params.D2, rng)
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := workload.RandomProfiles(q, params.N, params.D1, rng)
	if err != nil {
		t.Fatal(err)
	}
	return core.Inputs{Questionnaire: q, Criterion: crit, Profiles: profiles}
}
