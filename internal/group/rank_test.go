package group_test

import (
	"context"
	"math/big"
	"reflect"
	"testing"

	"groupranking"
	"groupranking/internal/core"
	"groupranking/internal/group"
	"groupranking/internal/unlinksort"
)

// TestRankByNameMatchesGenericCurve pins that the limb curve kernel a
// group name resolves to changes arithmetic speed and nothing else: a
// seeded ranking and a seeded standalone sort reproduce, field for
// field, the same runs on the math/big reference curve, serially and
// with the full worker pool.
func TestRankByNameMatchesGenericCurve(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the protocol on the slow math/big reference curve")
	}
	q, err := groupranking.NewQuestionnaire([]groupranking.Attribute{
		{Name: "age", Kind: groupranking.EqualTo},
		{Name: "blood_pressure", Kind: groupranking.EqualTo},
		{Name: "friends", Kind: groupranking.GreaterThan},
		{Name: "income", Kind: groupranking.GreaterThan},
	})
	if err != nil {
		t.Fatal(err)
	}
	crit := groupranking.Criterion{Values: []int64{35, 20, 10, 30}, Weights: []int64{5, 3, 2, 4}}
	profiles := []groupranking.Profile{
		{Values: []int64{35, 20, 60, 60}},
		{Values: []int64{40, 25, 30, 40}},
		{Values: []int64{20, 10, 50, 20}},
	}
	const seed = "kernel-vs-generic"
	opts := groupranking.Options{D1: 6, D2: 4, H: 6, K: 2, Seed: seed}
	oracle := group.Oracle(group.Secp160r1())
	ctx := context.Background()
	ref, fab, err := core.RunCtx(ctx, core.Params{
		N: len(profiles), M: q.M(), T: q.T(),
		D1: opts.D1, D2: opts.D2, H: opts.H, K: opts.K,
		Group: oracle, Workers: 1,
	}, core.Inputs{Questionnaire: q, Criterion: crit, Profiles: profiles}, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := &groupranking.Result{
		Ranks: ref.Ranks, Submissions: ref.Submissions, Suspicious: ref.Suspicious,
		BytesOnWire: fab.Stats().TotalBytes(), Rounds: fab.Stats().DistinctRounds,
	}
	betas := []*big.Int{big.NewInt(100), big.NewInt(7), big.NewInt(255), big.NewInt(7)}
	sortCfg := unlinksort.Config{Group: oracle, L: 8, Workers: 1}
	wantSort, sortFab, err := unlinksort.RunCtx(ctx, sortCfg, betas, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	byName, err := group.ByName("secp160r1")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 0} {
		opts.GroupName, opts.Workers = "secp160r1", workers
		got, err := groupranking.Rank(ctx, q, crit, profiles, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: Rank by name %+v, on the reference curve %+v", workers, got, want)
		}
		sortCfg.Group, sortCfg.Workers = byName, workers
		gotSort, gotFab, err := unlinksort.RunCtx(ctx, sortCfg, betas, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotSort, wantSort) {
			t.Errorf("workers=%d: sort by name %+v, on the reference curve %+v", workers, gotSort, wantSort)
		}
		if a, b := gotFab.Stats(), sortFab.Stats(); a.TotalBytes() != b.TotalBytes() || a.DistinctRounds != b.DistinctRounds {
			t.Errorf("workers=%d: sort traffic %d B / %d rounds, on the reference curve %d B / %d rounds",
				workers, a.TotalBytes(), a.DistinctRounds, b.TotalBytes(), b.DistinctRounds)
		}
	}
}
