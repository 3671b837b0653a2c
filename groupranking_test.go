package groupranking

import (
	"context"
	"sort"
	"sync"
	"testing"

	"groupranking/internal/fixedbig"
	"groupranking/internal/transport"
)

// fastOpts keeps public-API tests quick: small bit widths and a
// deterministic seed.
func fastOpts(seed string) Options {
	return Options{D1: 6, D2: 4, H: 6, K: 2, Seed: seed}
}

func demoQuestionnaire(t *testing.T) *Questionnaire {
	t.Helper()
	q, err := NewQuestionnaire([]Attribute{
		{Name: "age", Kind: EqualTo},
		{Name: "blood_pressure", Kind: EqualTo},
		{Name: "friends", Kind: GreaterThan},
		{Name: "income", Kind: GreaterThan},
	})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func demoData(t *testing.T) (Criterion, []Profile) {
	t.Helper()
	crit := Criterion{
		Values:  []int64{35, 20, 10, 30},
		Weights: []int64{5, 3, 2, 4},
	}
	profiles := []Profile{
		{Values: []int64{35, 20, 60, 60}}, // perfect match, high extras
		{Values: []int64{40, 25, 30, 40}},
		{Values: []int64{20, 10, 50, 20}},
		{Values: []int64{36, 21, 5, 25}},
	}
	return crit, profiles
}

func TestRankMatchesPlaintextOrder(t *testing.T) {
	q := demoQuestionnaire(t)
	crit, profiles := demoData(t)
	res, err := Rank(context.Background(), q, crit, profiles, fastOpts("api-basic"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ExpectedRanks(q, crit, profiles)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if res.Ranks[j] != want[j] {
			t.Errorf("participant %d: rank %d, want %d", j, res.Ranks[j], want[j])
		}
	}
	if len(res.Suspicious) != 0 {
		t.Errorf("honest run flagged %v", res.Suspicious)
	}
	if res.BytesOnWire <= 0 || res.Rounds <= 0 {
		t.Error("transport statistics missing")
	}
	// k=2 ⇒ exactly the two best submitted.
	if len(res.Submissions) != 2 {
		t.Fatalf("got %d submissions, want 2", len(res.Submissions))
	}
	for _, s := range res.Submissions {
		if s.ClaimedRank > 2 {
			t.Errorf("submission with rank %d", s.ClaimedRank)
		}
		g, err := Gain(q, crit, profiles[s.Participant])
		if err != nil {
			t.Fatal(err)
		}
		if s.Gain.Cmp(g) != 0 {
			t.Errorf("submission gain mismatch for %d", s.Participant)
		}
	}
}

func TestRankSecretSharingBackend(t *testing.T) {
	q := demoQuestionnaire(t)
	crit, profiles := demoData(t)
	// Odd participant count exercises degree (n−1)/2 = 1 resharing.
	profiles = profiles[:3]
	opts := fastOpts("api-ss")
	opts.Sorter = SecretSharing
	res, err := Rank(context.Background(), q, crit, profiles, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ExpectedRanks(q, crit, profiles)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if res.Ranks[j] != want[j] {
			t.Errorf("participant %d: rank %d, want %d", j, res.Ranks[j], want[j])
		}
	}
}

func TestRankDeterministicWithSeed(t *testing.T) {
	q := demoQuestionnaire(t)
	crit, profiles := demoData(t)
	a, err := Rank(context.Background(), q, crit, profiles, fastOpts("det"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Rank(context.Background(), q, crit, profiles, fastOpts("det"))
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.Ranks {
		if a.Ranks[j] != b.Ranks[j] {
			t.Fatal("same seed produced different ranks")
		}
	}
}

func TestRankDefaultsApplied(t *testing.T) {
	o, err := Options{}.params(demoQuestionnaire(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	if o.Group.Name() != "secp160r1" || o.D1 != 15 || o.D2 != 10 || o.H != 15 {
		t.Errorf("defaults wrong: %+v", o)
	}
	if o.K != 2 {
		t.Errorf("k should cap at n: %d", o.K)
	}
	if seed, err := fixedbig.DrawSeed(""); err != nil || seed == "" {
		t.Errorf("seed not drawn: %q, %v", seed, err)
	}
}

func TestRankUnknownGroup(t *testing.T) {
	q := demoQuestionnaire(t)
	crit, profiles := demoData(t)
	opts := fastOpts("bad-group")
	opts.GroupName = "nope"
	if _, err := Rank(context.Background(), q, crit, profiles, opts); err == nil {
		t.Error("unknown group accepted")
	}
}

func TestUnlinkableSortRanks(t *testing.T) {
	res, err := UnlinkableSort(context.Background(), []uint64{50, 10, 90, 30}, SortOptions{Seed: "sort-basic"})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 4, 1, 3}
	for i := range want {
		if res.Ranks[i] != want[i] {
			t.Errorf("ranks = %v, want %v", res.Ranks, want)
		}
	}
}

func TestUnlinkableSortTiesAndBits(t *testing.T) {
	res, err := UnlinkableSort(context.Background(), []uint64{7, 7, 3}, SortOptions{Seed: "sort-ties", Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks[0] != 1 || res.Ranks[1] != 1 || res.Ranks[2] != 3 {
		t.Errorf("ranks = %v, want [1 1 3]", res.Ranks)
	}
}

func TestUnlinkableSortZeroValues(t *testing.T) {
	res, err := UnlinkableSort(context.Background(), []uint64{0, 0}, SortOptions{Seed: "sort-zeros"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks[0] != 1 || res.Ranks[1] != 1 {
		t.Errorf("ranks = %v, want [1 1]", res.Ranks)
	}
}

func TestUnlinkableSortValidation(t *testing.T) {
	if _, err := UnlinkableSort(context.Background(), []uint64{1}, SortOptions{}); err == nil {
		t.Error("single value accepted")
	}
	if _, err := UnlinkableSort(context.Background(), []uint64{1, 2}, SortOptions{GroupName: "nope"}); err == nil {
		t.Error("unknown group accepted")
	}
}

func TestUnlinkableSortPermutationProperty(t *testing.T) {
	values := []uint64{11, 44, 22, 99, 55}
	res, err := UnlinkableSort(context.Background(), values, SortOptions{Seed: "sort-perm"})
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]int(nil), res.Ranks...)
	sort.Ints(sorted)
	for i, r := range sorted {
		if r != i+1 {
			t.Fatalf("ranks %v are not a permutation of 1..n", res.Ranks)
		}
	}
}

func TestUnlinkableSortPartyOverTCP(t *testing.T) {
	addrs, err := transport.FreeLoopbackAddrs(3)
	if err != nil {
		t.Fatal(err)
	}
	values := []uint64{42, 7, 99}
	ranks := make([]int, len(values))
	errs := make([]error, len(values))
	var wg sync.WaitGroup
	for me := range values {
		me := me
		wg.Add(1)
		go func() {
			defer wg.Done()
			ranks[me], errs[me] = UnlinkableSortParty(context.Background(), addrs, me, values[me], SortOptions{
				Bits: 8, Seed: "tcp-public", GroupName: "toy-dl-256",
			})
		}()
	}
	wg.Wait()
	for me, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", me, err)
		}
	}
	want := []int{2, 3, 1}
	for me := range want {
		if ranks[me] != want[me] {
			t.Errorf("party %d: rank %d, want %d", me, ranks[me], want[me])
		}
	}
}

func TestUnlinkableSortPartyRequiresBits(t *testing.T) {
	if _, err := UnlinkableSortParty(context.Background(), []string{"a", "b"}, 0, 1, SortOptions{}); err == nil {
		t.Error("missing Bits accepted")
	}
}

func TestRankWithProveDecryption(t *testing.T) {
	q := demoQuestionnaire(t)
	crit, profiles := demoData(t)
	opts := fastOpts("api-pd")
	opts.GroupName = "toy-dl-256"
	opts.ProveDecryption = true
	res, err := Rank(context.Background(), q, crit, profiles, opts)
	if err != nil {
		t.Fatal(err)
	}
	plain := fastOpts("api-pd")
	plain.GroupName = "toy-dl-256"
	resPlain, err := Rank(context.Background(), q, crit, profiles, plain)
	if err != nil {
		t.Fatal(err)
	}
	for j := range res.Ranks {
		if res.Ranks[j] != resPlain.Ranks[j] {
			t.Errorf("participant %d: integrity mode changed rank %d→%d", j, resPlain.Ranks[j], res.Ranks[j])
		}
	}
	if res.BytesOnWire <= resPlain.BytesOnWire {
		t.Error("integrity evidence should cost extra bytes")
	}
}
