package sssort

import (
	"context"
	"crypto/rand"
	"fmt"
	"math/big"
	"math/bits"
	mrand "math/rand"
	"sort"
	"testing"

	"groupranking/internal/fixedbig"
	"groupranking/internal/obsv"
	"groupranking/internal/ssmpc"
	"groupranking/internal/transport"
	"groupranking/internal/wirecodec"
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

// charges runs prog among cfg.N parties over the in-memory fabric and
// returns the multiplications, openings and rounds the engine charged
// each party, failing unless every party was charged alike, and the
// field elements each party sent each peer (every send of the engine
// goes to all n − 1 peers alike, and in process an opening is sent
// without its echo).
func charges(t *testing.T, cfg ssmpc.Config, seed string, prog func(e *ssmpc.Engine) error) ([3]int64, []int64) {
	t.Helper()
	reg := obsv.NewRegistry()
	fab, _, err := transport.RunMesh(context.Background(), cfg.N, nil, func(ctx context.Context, me int, net transport.Net) error {
		e, err := ssmpc.NewEngineCtx(obsv.WithParty(ctx, reg.Party(me)), cfg, me, net, fixedbig.PartyDRBG(seed, me))
		if err != nil {
			return err
		}
		return prog(e)
	})
	if err != nil {
		t.Fatal(err)
	}
	var got [3]int64
	for me := 0; me < cfg.N; me++ {
		c := [3]int64{reg.PartyTotal(me, obsv.OpSSMul), reg.PartyTotal(me, obsv.OpSSOpen), reg.PartyTotal(me, obsv.OpSSRound)}
		if me == 0 {
			got = c
		} else if c != got {
			t.Fatalf("party %d charged %v, party 0 %v", me, c, got)
		}
	}
	perPeer := make([]int64, cfg.N)
	unit := int64(cfg.N-1) * int64(wirecodec.WidthOf(cfg.P))
	for me, b := range fab.Stats().BytesSent {
		if b%unit != 0 {
			t.Fatalf("party %d sent %d bytes, not a whole number of elements to each of %d peers", me, b, cfg.N-1)
		}
		perPeer[me] = b / unit
	}
	return got, perPeer
}

// treeMuls is BitLTPublicBatch's multiplications per instance at width
// m: ⌊m/2⌋ at the leaves, then at a level of w runs two per pair, but
// one for the pair that holds bit 0.
func treeMuls(m int) int64 {
	total := m / 2
	for w := (m + 1) / 2; w > 1; w = (w + 1) / 2 {
		total += 2*(w/2) - 1
	}
	return int64(total)
}

// TestTrafficShape pins what a comparison and a sort charge as closed
// forms in the width l, the comparator count C, the network depth D and
// the last layer's comparator count k_last, over two input sets each:
// the traffic may depend on the shape of the sort, never on the values
// compared or on anything opened. A multiplication is a degree
// reduction; a product opened from its degree-2d shares is not one. A
// comparison draws MaskBits(l) = l bits (one square each, opened
// unreduced) and deals one integer beside them for its high mask, opens
// its masked value and runs the ⌈log₂ l⌉-round tree; a sort draws every
// comparator's masks in one batch (two rounds), then spends per layer
// that opening and the tree, whose first round also reduces the
// products of the layer before, and opens the last layer's products
// unreduced with two zero-sharings a comparator. Each party sends each
// peer, per comparison, 2l + 1 dealt elements, l square shares opened,
// the masked value opened, the tree's pieces and the swap product's
// (reduced or, in the last layer, replaced by two zero-sharings):
// 3l + tree(l) + 3, plus k_last a sort.
func TestTrafficShape(t *testing.T) {
	const l = 27
	mask, tree, depth := int64(ssmpc.MaskBits(l)), treeMuls(l), int64(bits.Len(l-1))
	if mask != 27 || tree != 35 || depth != 5 {
		t.Fatalf("closed forms at l = 27: %d mask bits, %d tree multiplications in %d rounds; want 27, 35, 5", mask, tree, depth)
	}
	cfg := testConfig(t, 5, 2)
	for i, pairs := range [][][2]int64{{{50, 3}, {7, 7}, {0, 1}}, {{0, 1<<l - 1}, {1<<l - 1, 0}, {12345, 12344}}} {
		k := int64(len(pairs))
		got, _ := charges(t, cfg, fmt.Sprintf("gte-%d", i), func(e *ssmpc.Engine) error {
			var secrets []*big.Int
			if e.Party() == 0 {
				for _, p := range pairs {
					secrets = append(secrets, big.NewInt(p[0]), big.NewInt(p[1]))
				}
			}
			sh, err := e.ShareBatch(0, secrets, 2*len(pairs))
			if err != nil {
				return err
			}
			as, bs := make([]ssmpc.Share, len(pairs)), make([]ssmpc.Share, len(pairs))
			for j := range pairs {
				as[j], bs[j] = sh[2*j], sh[2*j+1]
			}
			m, err := e.RandomBits(len(pairs)*ssmpc.MaskBits(l), len(pairs), ssmpc.MaskWidth(l), 0)
			if err != nil {
				return err
			}
			_, err = e.GTEBatch(as, bs, l, m.Bits, m.Highs)
			return err
		})
		// The sharing is one round; the rest is the comparison.
		if want := [3]int64{k * tree, k * (mask + 1), 1 + 2 + 1 + depth}; got != want {
			t.Errorf("GTEBatch of %d at l = %d, input set %d: charged (muls, opens, rounds) %v, want %v", k, l, i, got, want)
		}
	}
	for _, n := range []int{3, 5} {
		cfg := testConfig(t, n, (n-1)/2)
		c, d, last := int64(Comparators(n)), int64(Depth(n)), lastLayer(n)
		if n == 5 && (c != 9 || d != 6 || last != 2) {
			t.Fatalf("network at n = 5: C = %d, D = %d, k_last = %d; want 9, 6, 2", c, d, last)
		}
		// n sharing rounds, the masks, D layers, the final opening.
		want := [3]int64{c*(tree+1) - last, c*(mask+1) + int64(n), int64(n) + 2 + d*(1+depth) + 1}
		// One share dealt, each comparison's, the n values opened.
		wantPerPeer := 1 + c*(3*l+tree+3) + int64(n) + last
		for i, vals := range [][]int64{{1<<l - 1, 0, 5, 5, 1}, {3, 1 << 20, 7, 0, 1<<l - 2}} {
			got, perPeer := sortCharges(t, cfg, fmt.Sprintf("sort-%d-%d", n, i), vals[:n], l)
			if got != want {
				t.Errorf("SortOpen at n = %d, input set %d: charged (muls, opens, rounds) %v, want %v", n, i, got, want)
			}
			for me, e := range perPeer {
				if e != wantPerPeer {
					t.Errorf("SortOpen at n = %d, input set %d: party %d sent each peer %d elements, want %d", n, i, me, e, wantPerPeer)
				}
			}
		}
	}
}

// TestOneBitLayersReduceInTheirOwnRound: at l = 1 the less-than has no
// round for a layer's products to ride in, so each layer after the
// first takes one round of its own to reduce the products of the layer
// before, and the sort still comes out right.
func TestOneBitLayersReduceInTheirOwnRound(t *testing.T) {
	const l = 1
	for _, n := range []int{3, 5} {
		cfg := testConfig(t, n, (n-1)/2)
		c, d, last := int64(Comparators(n)), int64(Depth(n)), lastLayer(n)
		// Per layer the opening, and a reduction round in every layer
		// but the first.
		want := [3]int64{c - last, 2*c + int64(n), int64(n) + 2 + d + (d - 1) + 1}
		wantPerPeer := 1 + c*(3*l+3) + int64(n) + last
		vals := []int64{1, 0, 1, 0, 0}[:n]
		got, perPeer := sortCharges(t, cfg, fmt.Sprintf("sort-bit-%d", n), vals, l)
		if got != want {
			t.Errorf("SortOpen at n = %d, l = 1: charged (muls, opens, rounds) %v, want %v", n, got, want)
		}
		for me, e := range perPeer {
			if e != wantPerPeer {
				t.Errorf("SortOpen at n = %d, l = 1: party %d sent each peer %d elements, want %d", n, me, e, wantPerPeer)
			}
		}
		opened := runSecureSort(t, cfg, vals, l, fmt.Sprintf("sort-bit-values-%d", n))
		sorted := append([]int64(nil), vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i, v := range opened {
			if v.Int64() != sorted[i] {
				t.Errorf("n = %d, l = 1: position %d opened %s, want %d", n, i, v, sorted[i])
			}
		}
	}
}

// lastLayer is the comparator count k_last of the network's last layer.
func lastLayer(n int) int64 {
	layers := network(n)
	return int64(len(layers[len(layers)-1]))
}

// sortCharges runs SortOpen of vals at width l, every party dealing its
// own value so that every party sends each peer the same count, and
// returns what charges does.
func sortCharges(t *testing.T, cfg ssmpc.Config, seed string, vals []int64, l int) ([3]int64, []int64) {
	t.Helper()
	n := len(vals)
	return charges(t, cfg, seed, func(e *ssmpc.Engine) error {
		shares := make([]ssmpc.Share, n)
		for j, v := range vals {
			var s *big.Int
			if e.Party() == j {
				s = big.NewInt(v)
			}
			sh, err := e.ShareBatch(j, []*big.Int{s}, 1)
			if err != nil {
				return err
			}
			shares[j] = sh[0]
		}
		_, err := SortOpen(e, shares, l)
		return err
	})
}

// FuzzSortOpenAgainstPlaintext holds SortOpen to the plaintext sort:
// n ∈ {3, 4, 5} parties (sel mod 3), l ∈ [1, 32] and the first n of the
// values reduced below 2^l, every party opening the same sorted
// sequence. The sort opens its comparison inputs from degree-2d shares
// across layers, reduces each layer's products in the next layer's
// less-than (in a round of its own at l = 1) and opens the last layer's
// products unreduced, so every path of the sort is under it.
func FuzzSortOpenAgainstPlaintext(f *testing.F) {
	for _, l := range []uint8{1, 2, 27, 32} {
		top := uint64(1)<<l - 1
		for sel := uint8(0); sel < 3; sel++ {
			f.Add(sel, l, uint64(0), uint64(0), uint64(0), uint64(0), uint64(0))
			f.Add(sel, l, top, top, top, top, top)
			f.Add(sel, l, top, uint64(0), top, uint64(0), top/2)
			f.Add(sel, l, top/2, top, uint64(0), top/2, uint64(1))
		}
	}
	p, err := rand.Prime(fixedbig.NewDRBG("sssort-prime"), 128)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, sel, lIn uint8, v0, v1, v2, v3, v4 uint64) {
		n, l := 3+int(sel%3), 1+int(lIn%32)
		cfg := ssmpc.Config{N: n, Degree: (n - 1) / 2, P: p}
		vals := []int64{int64(v0), int64(v1), int64(v2), int64(v3), int64(v4)}[:n]
		for i := range vals {
			vals[i] &= 1<<l - 1
		}
		got := runSecureSort(t, cfg, vals, l, fmt.Sprintf("sort-fuzz-%d-%d-%v", n, l, vals))
		want := append([]int64(nil), vals...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if !got[i].IsInt64() || got[i].Int64() != want[i] {
				t.Fatalf("n = %d, l = %d: position %d opened %s, want %d (input %v)", n, l, i, got[i], want[i], vals)
			}
		}
	})
}
