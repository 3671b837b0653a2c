package sssort

import (
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"sort"
	"testing"

	"groupranking/internal/fixedbig"
	"groupranking/internal/ssmpc"
)

// applyPlain runs the comparator network on plaintext values.
func applyPlain(layers [][]Comparator, vals []int) []int {
	out := make([]int, len(vals))
	copy(out, vals)
	for _, layer := range layers {
		for _, c := range layer {
			if out[c.Lo] > out[c.Hi] {
				out[c.Lo], out[c.Hi] = out[c.Hi], out[c.Lo]
			}
		}
	}
	return out
}

func TestNetworkSortsEveryN(t *testing.T) {
	rng := mrand.New(mrand.NewSource(7))
	for n := 1; n <= 40; n++ {
		layers := network(n)
		for trial := 0; trial < 25; trial++ {
			vals := make([]int, n)
			for i := range vals {
				vals[i] = rng.Intn(50)
			}
			got := applyPlain(layers, vals)
			want := make([]int, n)
			copy(want, vals)
			sort.Ints(want)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d trial %d: network failed: got %v want %v (input %v)", n, trial, got, want, vals)
				}
			}
		}
	}
}

func TestNetworkLayersAreDisjoint(t *testing.T) {
	for n := 2; n <= 64; n++ {
		for li, layer := range network(n) {
			seen := make(map[int]bool)
			for _, c := range layer {
				if c.Lo >= c.Hi {
					t.Fatalf("n=%d layer %d: comparator %v not ordered", n, li, c)
				}
				if c.Hi >= n || c.Lo < 0 {
					t.Fatalf("n=%d layer %d: comparator %v out of range", n, li, c)
				}
				if seen[c.Lo] || seen[c.Hi] {
					t.Fatalf("n=%d layer %d: wire reused", n, li)
				}
				seen[c.Lo], seen[c.Hi] = true, true
			}
		}
	}
}

func TestNetworkComplexity(t *testing.T) {
	// Comparator count must grow as O(n·log²n): check the standard exact
	// counts for powers of two, c(n) = n·log n·(log n − 1)/4 + n − 1.
	for _, tc := range []struct{ n, want int }{
		{2, 1}, {4, 5}, {8, 19}, {16, 63}, {32, 191},
	} {
		if got := Comparators(tc.n); got != tc.want {
			t.Errorf("Comparators(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	// Depth is log n·(log n + 1)/2 for powers of two.
	for _, tc := range []struct{ n, want int }{
		{2, 1}, {4, 3}, {8, 6}, {16, 10}, {32, 15},
	} {
		if got := Depth(tc.n); got != tc.want {
			t.Errorf("Depth(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestNetworkTrivialSizes(t *testing.T) {
	if layers := network(0); len(layers) != 0 {
		t.Error("network(0) not empty")
	}
	if layers := network(1); len(layers) != 0 {
		t.Error("network(1) not empty")
	}
}

func testConfig(t *testing.T, n, degree int) ssmpc.Config {
	t.Helper()
	p, err := rand.Prime(fixedbig.NewDRBG("sssort-prime"), 128)
	if err != nil {
		t.Fatal(err)
	}
	return ssmpc.Config{N: n, Degree: degree, P: p}
}

// runSecureSort shares vals from party 0, sorts them with the given bit
// width, and returns the opened result as seen by party 0.
func runSecureSort(t *testing.T, cfg ssmpc.Config, vals []int64, l int, seed string) []*big.Int {
	t.Helper()
	results, _, err := ssmpc.RunProgram(cfg, seed, nil, func(e *ssmpc.Engine) ([]*big.Int, error) {
		shares := make([]ssmpc.Share, len(vals))
		for i, v := range vals {
			var s *big.Int
			if e.Party() == 0 {
				s = big.NewInt(v)
			}
			sh, err := e.ShareBatch(0, []*big.Int{s}, 1)
			if err != nil {
				return nil, err
			}
			shares[i] = sh[0]
		}
		return SortOpen(e, shares, l)
	})
	if err != nil {
		t.Fatal(err)
	}
	// All parties must see the same opened sequence.
	for _, r := range results[1:] {
		for i := range r.Value {
			if r.Value[i].Cmp(results[0].Value[i]) != 0 {
				t.Fatal("parties disagree on the sorted output")
			}
		}
	}
	return results[0].Value
}

func TestSecureSortSmall(t *testing.T) {
	cfg := testConfig(t, 3, 1)
	cases := []struct {
		name string
		vals []int64
	}{
		{"reverse", []int64{9, 7, 5, 3}},
		{"sorted", []int64{1, 2, 3, 4}},
		{"duplicates", []int64{5, 5, 1, 5}},
		{"single", []int64{8}},
		{"pair", []int64{4, 2}},
		{"odd length", []int64{6, 1, 9, 2, 7}},
		{"zeros", []int64{0, 0, 0}},
		{"max values", []int64{15, 14, 15}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := runSecureSort(t, cfg, tc.vals, 4, "secure-"+tc.name)
			want := make([]int64, len(tc.vals))
			copy(want, tc.vals)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			for i := range want {
				if got[i].Int64() != want[i] {
					t.Fatalf("position %d: got %s, want %d (input %v)", i, got[i], want[i], tc.vals)
				}
			}
		})
	}
}

func TestSecureSortWiderValuesMoreParties(t *testing.T) {
	if testing.Short() {
		t.Skip("secure sort with 5 parties is slow in -short mode")
	}
	cfg := testConfig(t, 5, 2)
	vals := []int64{1023, 0, 512, 511, 700, 700, 3}
	got := runSecureSort(t, cfg, vals, 10, "wide")
	want := make([]int64, len(vals))
	copy(want, vals)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i].Int64() != want[i] {
			t.Fatalf("position %d: got %s, want %d", i, got[i], want[i])
		}
	}
}

func TestSortRejectsBadWidth(t *testing.T) {
	cfg := testConfig(t, 3, 1)
	_, _, err := ssmpc.RunProgram(cfg, "bad-width", nil, func(e *ssmpc.Engine) (int, error) {
		sh, err := e.ShareBatch(0, []*big.Int{big.NewInt(1)}, 1)
		if err != nil && e.Party() != 0 {
			return 0, err
		}
		if _, err := sortShares(e, sh, 0); err != nil {
			return 0, err
		}
		return 0, nil
	})
	if err == nil {
		t.Error("zero bit width accepted")
	}
}

func TestRankDescending(t *testing.T) {
	asc := []*big.Int{big.NewInt(1), big.NewInt(3), big.NewInt(3), big.NewInt(8)}
	cases := []struct {
		mine int64
		want int
	}{
		{8, 1}, {3, 2}, {1, 4},
	}
	for _, tc := range cases {
		if got := RankDescending(asc, big.NewInt(tc.mine)); got != tc.want {
			t.Errorf("RankDescending(%d) = %d, want %d", tc.mine, got, tc.want)
		}
	}
}
