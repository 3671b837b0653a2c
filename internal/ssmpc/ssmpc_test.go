package ssmpc

import (
	"context"
	"crypto/rand"
	"fmt"
	"math/big"
	"math/bits"
	"strings"
	"sync"
	"testing"

	"groupranking/internal/fixedbig"
	"groupranking/internal/obsv"
	"groupranking/internal/transport"
)

func testConfig(t *testing.T, n, degree int) Config {
	t.Helper()
	p, err := rand.Prime(fixedbig.NewDRBG("ssmpc-prime"), 128)
	if err != nil {
		t.Fatal(err)
	}
	return Config{N: n, Degree: degree, P: p}
}

// openOne opens a one-element batch.
func openOne(e *Engine, s []Share) (*big.Int, error) {
	out, err := e.OpenBatch(s)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

func TestShareOpenRoundTrip(t *testing.T) {
	cfg := testConfig(t, 5, 2)
	secretVals := []int64{0, 1, 42, -7, 1 << 40}
	results, _, err := RunProgram(cfg, "share-open", nil, func(e *Engine) ([]*big.Int, error) {
		out := make([]*big.Int, 0, len(secretVals))
		for _, v := range secretVals {
			var secret *big.Int
			if e.Party() == 0 {
				secret = big.NewInt(v)
			}
			sh, err := e.ShareBatch(0, []*big.Int{secret}, 1)
			if err != nil {
				return nil, err
			}
			o, err := openOne(e, sh)
			if err != nil {
				return nil, err
			}
			out = append(out, o)
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		for i, v := range secretVals {
			want := new(big.Int).Mod(big.NewInt(v), cfg.P)
			if r.Value[i].Cmp(want) != 0 {
				t.Errorf("party %d secret %d: got %s, want %s", r.Party, v, r.Value[i], want)
			}
		}
	}
}

func TestLinearOpsAndMul(t *testing.T) {
	cfg := testConfig(t, 5, 2)
	results, _, err := RunProgram(cfg, "linear-mul", nil, func(e *Engine) (*big.Int, error) {
		var sa, sb *big.Int
		if e.Party() == 0 {
			sa = big.NewInt(6)
		}
		if e.Party() == 1 {
			sb = big.NewInt(7)
		}
		a, err := e.ShareBatch(0, []*big.Int{sa}, 1)
		if err != nil {
			return nil, err
		}
		b, err := e.ShareBatch(1, []*big.Int{sb}, 1)
		if err != nil {
			return nil, err
		}
		// (3a + b + 5)·b − a = (18+7+5)·7 − 6 = 204.
		three := e.f.Reduce(big.NewInt(3))
		lin := e.Add(e.Add(e.scale(a[0], &three), b[0]), e.ConstShare(big.NewInt(5)))
		prod, err := e.MulBatch([]Share{lin}, b)
		if err != nil {
			return nil, err
		}
		return openOne(e, []Share{e.Sub(prod[0], a[0])})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Value.Int64() != 204 {
			t.Errorf("party %d: got %s, want 204", r.Party, r.Value)
		}
	}
}

func TestMulBatch(t *testing.T) {
	cfg := testConfig(t, 7, 3)
	as := []int64{3, 0, 12, 1}
	bs := []int64{9, 5, 12, 1}
	results, _, err := RunProgram(cfg, "mul-batch", nil, func(e *Engine) ([]*big.Int, error) {
		var va, vb []*big.Int
		if e.Party() == 0 {
			for i := range as {
				va, vb = append(va, big.NewInt(as[i])), append(vb, big.NewInt(bs[i]))
			}
		}
		shAs, err := e.ShareBatch(0, va, len(as))
		if err != nil {
			return nil, err
		}
		shBs, err := e.ShareBatch(0, vb, len(bs))
		if err != nil {
			return nil, err
		}
		prods, err := e.MulBatch(shAs, shBs)
		if err != nil {
			return nil, err
		}
		return e.OpenBatch(prods)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range as {
		want := as[i] * bs[i]
		if results[0].Value[i].Int64() != want {
			t.Errorf("product %d: got %s, want %d", i, results[0].Value[i], want)
		}
	}
}

func TestRandomElementsAgree(t *testing.T) {
	cfg := testConfig(t, 5, 2)
	results, _, err := RunProgram(cfg, "rand-elems", nil, func(e *Engine) ([]*big.Int, error) {
		rs, err := e.RandomElements(3)
		if err != nil {
			return nil, err
		}
		return e.OpenBatch(rs)
	})
	if err != nil {
		t.Fatal(err)
	}
	// All parties open the same values, and they are not all equal.
	for i := 0; i < 3; i++ {
		for _, r := range results {
			if r.Value[i].Cmp(results[0].Value[i]) != 0 {
				t.Fatalf("parties disagree on random element %d", i)
			}
		}
	}
	if results[0].Value[0].Cmp(results[0].Value[1]) == 0 && results[0].Value[1].Cmp(results[0].Value[2]) == 0 {
		t.Error("three joint random elements all equal; randomness looks broken")
	}
}

func TestRandomBitsAreBits(t *testing.T) {
	cfg := testConfig(t, 5, 2)
	const k = 24
	results, _, err := RunProgram(cfg, "rand-bits", nil, func(e *Engine) ([]*big.Int, error) {
		bits, _, err := e.RandomBits(k, 0, 0)
		if err != nil {
			return nil, err
		}
		return e.OpenBatch(bits)
	})
	if err != nil {
		t.Fatal(err)
	}
	ones := 0
	for i, v := range results[0].Value {
		if !(v.Sign() == 0 || v.Cmp(big.NewInt(1)) == 0) {
			t.Errorf("bit %d opened to %s", i, v)
		}
		if v.Sign() != 0 {
			ones++
		}
	}
	if ones == 0 || ones == k {
		t.Errorf("all %d random bits identical (%d ones); distribution broken", k, ones)
	}
}

// TestRandomBitsDealsIntegers: the integers RandomBits deals beside its
// bits open, at every party alike, to sums of n values below 2^w, and
// they cost no round of their own: bits and integers together take the
// three rounds the bits alone take.
func TestRandomBitsDealsIntegers(t *testing.T) {
	const n, k, ints, w = 5, 3, 16, 10
	cfg := testConfig(t, n, 2)
	results, _, err := RunProgram(cfg, "rand-ints", nil, func(e *Engine) ([]*big.Int, error) {
		before := e.round
		bits, sums, err := e.RandomBits(k, ints, w)
		if err != nil {
			return nil, err
		}
		if rounds := e.round - before; rounds != 3 || len(bits) != k || len(sums) != ints {
			return nil, fmt.Errorf("%d bits and %d integers in %d rounds, want %d, %d, 3", len(bits), len(sums), rounds, k, ints)
		}
		return e.OpenBatch(sums)
	})
	if err != nil {
		t.Fatal(err)
	}
	max := big.NewInt(n * (1<<w - 1))
	distinct := map[string]bool{}
	for i, v := range results[0].Value {
		for _, r := range results[1:] {
			if r.Value[i].Cmp(v) != 0 {
				t.Fatalf("parties disagree on integer %d", i)
			}
		}
		if v.Sign() < 0 || v.Cmp(max) > 0 {
			t.Errorf("integer %d opened to %s, outside [0, %s]", i, v, max)
		}
		distinct[v.String()] = true
	}
	if len(distinct) < ints/2 {
		t.Errorf("%d integers took only %d distinct values; distribution broken", ints, len(distinct))
	}
}

// TestBitLTPublic checks every (c, r) pair at widths 1–6, one batch per
// width, and random pairs with the edges at width 27, the comparison
// width of the benchmarked runs. The small widths take the constant
// leaf of bit 0 alone (width 1, no round), unpaired runs at odd widths
// and every shape of the tree up to three levels.
func TestBitLTPublic(t *testing.T) {
	cfg := testConfig(t, 5, 2)
	for width := 1; width <= 6; width++ {
		var cs, rs []uint64
		for c := uint64(0); c < 1<<width; c++ {
			for r := uint64(0); r < 1<<width; r++ {
				cs, rs = append(cs, c), append(rs, r)
			}
		}
		checkBitLT(t, cfg, width, cs, rs)
	}
	const top = 1<<27 - 1
	cs := []uint64{0, 0, top, top, 1 << 26, 1<<26 - 1, 12345678, 12345679}
	rs := []uint64{0, top, 0, top, 1<<26 - 1, 1 << 26, 12345679, 12345678}
	drbg := fixedbig.NewDRBG("bitlt-27")
	for i := 0; i < 64; i++ {
		c, err := fixedbig.RandBits(drbg, 27)
		if err != nil {
			t.Fatal(err)
		}
		r, err := fixedbig.RandBits(drbg, 27)
		if err != nil {
			t.Fatal(err)
		}
		cs, rs = append(cs, c.Uint64()), append(rs, r.Uint64())
	}
	checkBitLT(t, cfg, 27, cs, rs)
}

// checkBitLT runs one BitLTPublicBatch over the pairs (cs[j], rs[j]) at
// the given width, with r's bits dealt by party 0, and checks every
// opened bit and that the batch took ⌈log₂ width⌉ rounds.
func checkBitLT(t *testing.T, cfg Config, width int, cs, rs []uint64) {
	t.Helper()
	results, _, err := RunProgram(cfg, fmt.Sprintf("bitlt-%d", width), nil, func(e *Engine) ([]*big.Int, error) {
		var rVals []*big.Int
		if e.Party() == 0 {
			for _, r := range rs {
				for i := 0; i < width; i++ {
					rVals = append(rVals, big.NewInt(int64(r>>i&1)))
				}
			}
		}
		flat, err := e.ShareBatch(0, rVals, len(rs)*width)
		if err != nil {
			return nil, err
		}
		cBits := make([][]uint8, len(cs))
		rBits := make([][]Share, len(cs))
		for j, c := range cs {
			if cBits[j], err = fixedbig.Bits(new(big.Int).SetUint64(c), width); err != nil {
				return nil, err
			}
			rBits[j] = flat[j*width : (j+1)*width]
		}
		before := e.round
		lt, err := e.BitLTPublicBatch(cBits, rBits)
		if err != nil {
			return nil, err
		}
		if rounds, want := e.round-before, bits.Len(uint(width-1)); rounds != want {
			return nil, fmt.Errorf("width %d took %d rounds, want %d", width, rounds, want)
		}
		return e.OpenBatch(lt)
	})
	if err != nil {
		t.Fatal(err)
	}
	for j, got := range results[0].Value {
		want := int64(0)
		if cs[j] < rs[j] {
			want = 1
		}
		if got.Int64() != want {
			t.Errorf("width %d: [%d < %d] opened %s, want %d", width, cs[j], rs[j], got, want)
		}
	}
}

func TestMod2m(t *testing.T) {
	cfg := testConfig(t, 5, 2)
	cases := []struct {
		x          int64
		lPrime, m  int
		wantMod2mV int64
	}{
		{13, 5, 3, 5}, {8, 5, 3, 0}, {0, 5, 3, 0}, {31, 5, 3, 7}, {255, 9, 8, 255}, {256, 9, 8, 0},
	}
	for _, tc := range cases {
		tc := tc
		results, _, err := RunProgram(cfg, "mod2m", nil, func(e *Engine) (*big.Int, error) {
			var v *big.Int
			if e.Party() == 0 {
				v = big.NewInt(tc.x)
			}
			x, err := e.ShareBatch(0, []*big.Int{v}, 1)
			if err != nil {
				return nil, err
			}
			bits, highs, err := e.RandomBits(tc.m, 1, highWidth(tc.lPrime, tc.m))
			if err != nil {
				return nil, err
			}
			if _, err := e.Mod2mBatch(x, tc.lPrime, tc.m, bits[1:], highs); err == nil {
				return nil, fmt.Errorf("Mod2m accepted %d mask bits for %d", len(bits)-1, len(bits))
			}
			if _, err := e.Mod2mBatch(x, tc.lPrime, tc.m, bits, nil); err == nil {
				return nil, fmt.Errorf("Mod2m accepted no high mask")
			}
			low, err := e.Mod2mBatch(x, tc.lPrime, tc.m, bits, highs)
			if err != nil {
				return nil, err
			}
			return openOne(e, low)
		})
		if err != nil {
			t.Fatal(err)
		}
		if results[0].Value.Int64() != tc.wantMod2mV {
			t.Errorf("%d mod 2^%d: got %s, want %d", tc.x, tc.m, results[0].Value, tc.wantMod2mV)
		}
	}
}

func TestGTEAndLT(t *testing.T) {
	cfg := testConfig(t, 5, 2)
	const l = 8
	cases := []struct{ a, b int64 }{
		{0, 0}, {0, 1}, {1, 0}, {100, 100}, {255, 0}, {0, 255}, {128, 127}, {127, 128}, {200, 200},
	}
	for _, tc := range cases {
		tc := tc
		results, _, err := RunProgram(cfg, "gte", nil, func(e *Engine) ([]*big.Int, error) {
			var va, vb *big.Int
			if e.Party() == 0 {
				va, vb = big.NewInt(tc.a), big.NewInt(tc.b)
			}
			a, err := e.ShareBatch(0, []*big.Int{va}, 1)
			if err != nil {
				return nil, err
			}
			b, err := e.ShareBatch(0, []*big.Int{vb}, 1)
			if err != nil {
				return nil, err
			}
			bits, highs, err := e.RandomBits(MaskBits(l), 1, MaskWidth(l))
			if err != nil {
				return nil, err
			}
			gte, err := e.GTEBatch(a, b, l, bits, highs)
			if err != nil {
				return nil, err
			}
			// [a < b] = 1 − [a ≥ b].
			lt := e.Sub(e.one, gte[0])
			return e.OpenBatch([]Share{gte[0], lt})
		})
		if err != nil {
			t.Fatal(err)
		}
		wantGTE := int64(0)
		if tc.a >= tc.b {
			wantGTE = 1
		}
		got := results[0].Value
		if got[0].Int64() != wantGTE || got[1].Int64() != 1-wantGTE {
			t.Errorf("GTE(%d,%d): got (%s,%s), want (%d,%d)", tc.a, tc.b, got[0], got[1], wantGTE, 1-wantGTE)
		}
	}
}

// TestCountersAdvance reads the engine's cost quantities (Section VI-B)
// from the obsv registry a party's context carries, where the engine
// counts them.
func TestCountersAdvance(t *testing.T) {
	cfg := testConfig(t, 5, 2)
	reg := obsv.NewRegistry()
	fab, _, err := transport.RunMesh(context.Background(), cfg.N, nil, func(ctx context.Context, me int, net transport.Net) error {
		e, err := NewEngineCtx(obsv.WithParty(ctx, reg.Party(me)), cfg, me, net, fixedbig.PartyDRBG("counters", me))
		if err != nil {
			return err
		}
		var v *big.Int
		if me == 0 {
			v = big.NewInt(50)
		}
		a, err := e.ShareBatch(0, []*big.Int{v}, 1)
		if err != nil {
			return err
		}
		bits, highs, err := e.RandomBits(MaskBits(8), 1, MaskWidth(8))
		if err != nil {
			return err
		}
		gte, err := e.GTEBatch(a, a, 8, bits, highs)
		if err != nil {
			return err
		}
		_, err = openOne(e, gte)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	mults, opens, rounds := reg.PartyTotal(0, obsv.OpSSMul), reg.PartyTotal(0, obsv.OpSSOpen), reg.PartyTotal(0, obsv.OpSSRound)
	if mults == 0 || rounds == 0 || opens == 0 {
		t.Errorf("counters did not advance: %d mults, %d opens, %d rounds", mults, opens, rounds)
	}
	if fab.Stats().TotalBytes() == 0 {
		t.Error("no bytes recorded on the fabric")
	}
	// One comparison at l = 8: l = 8 squarings for the low mask's bits
	// (the high mask is dealt, not squared) and 4 + 3 + 1 = 8 in the
	// tree (sssort's traffic test pins the closed forms).
	if mults != 16 {
		t.Errorf("one comparison at l = 8 made %d multiplications, want 16", mults)
	}
}

func TestConfigValidation(t *testing.T) {
	p, err := rand.Prime(fixedbig.NewDRBG("cfg-prime"), 64)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{N: 0, Degree: 0, P: p},
		{N: 4, Degree: 2, P: p},               // n < 2d+1
		{N: 3, Degree: -1, P: p},              // negative degree
		{N: 3, Degree: 1},                     // missing prime
		{N: 3, Degree: 1, P: big.NewInt(100)}, // composite
	}
	for i, cfg := range bad {
		if err := cfg.validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	good := Config{N: 5, Degree: 2, P: p}
	if err := good.validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestGTEFieldTooSmall holds checkWidth to the exact no-wrap bound at
// n = 3 and 5: at the smallest prime above the largest opening
// maxOpening(n, l', m), Mod2m with every mask at its maximum (all m
// bits of r' set and r” the public constant n·(2^w − 1)) and
// x = 2^l' − 1 opens exactly that largest value and still returns
// x mod 2^m, and GTE with a = 2^l − 1, b = 0 (its largest c) still
// returns 1. The largest prime not above the bound, and one a bit
// narrower than the accepted one, are refused by name.
func TestGTEFieldTooSmall(t *testing.T) {
	for _, tc := range []struct{ n, lPrime, m int }{
		{3, 9, 8}, {5, 9, 8}, {3, 17, 5}, {5, 17, 5},
	} {
		tc := tc
		t.Run(fmt.Sprintf("n%d_l%d_m%d", tc.n, tc.lPrime, tc.m), func(t *testing.T) {
			max := maxOpening(tc.n, tc.lPrime, tc.m)
			p := nextPrime(max, 1)
			below := nextPrime(max, -1)
			narrower := nextPrime(new(big.Int).Lsh(big.NewInt(1), uint(p.BitLen()-1)), -1)
			cfg := Config{N: tc.n, Degree: (tc.n - 1) / 2, P: p}
			results, _, err := RunProgram(cfg, "width-edge", nil, func(e *Engine) ([]*big.Int, error) {
				top := new(big.Int).Lsh(big.NewInt(1), uint(tc.lPrime))
				x := e.ConstShare(top.Sub(top, big.NewInt(1)))
				bits := make([]Share, tc.m)
				for i := range bits {
					bits[i] = e.one
				}
				high := e.ConstShare(big.NewInt(int64(tc.n) * (1<<highWidth(tc.lPrime, tc.m) - 1)))
				out, err := e.Mod2mBatch([]Share{x}, tc.lPrime, tc.m, bits, []Share{high})
				if err != nil {
					return nil, err
				}
				if l := tc.m; tc.lPrime == l+1 {
					// GTE's c = a − b + 2^l is 2^l' − 1 at a = 2^l − 1, b = 0.
					a := e.ConstShare(new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(l)), big.NewInt(1)))
					gte, err := e.GTEBatch([]Share{a}, []Share{{}}, l, bits, []Share{high})
					if err != nil {
						return nil, err
					}
					out = append(out, gte...)
				}
				return e.OpenBatch(out)
			})
			if err != nil {
				t.Fatal(err)
			}
			got := results[0].Value
			if want := int64(1<<tc.m - 1); got[0].Int64() != want {
				t.Errorf("at the smallest accepted prime (%d bits), Mod2m of 2^%d − 1 returned %s, want %d",
					p.BitLen(), tc.lPrime, got[0], want)
			}
			if len(got) > 1 && got[1].Int64() != 1 {
				t.Errorf("at the smallest accepted prime, GTE(2^%d − 1, 0) returned %s, want 1", tc.m, got[1])
			}
			for _, q := range []*big.Int{below, narrower} {
				e := &Engine{cfg: Config{N: tc.n, P: q}}
				err := e.checkWidth(tc.lPrime, tc.m)
				if err == nil {
					t.Errorf("a %d-bit prime %s not above the bound %s accepted", q.BitLen(), q, max)
				} else if name := fmt.Sprintf("n = %d", tc.n); !strings.Contains(err.Error(), name) {
					t.Errorf("refusal %q does not name %q", err, name)
				}
			}
		})
	}
}

// nextPrime returns the nearest prime strictly above x (dir = 1) or
// strictly below it (dir = −1).
func nextPrime(x *big.Int, dir int64) *big.Int {
	step := big.NewInt(dir)
	q := new(big.Int).Add(x, step)
	for !q.ProbablyPrime(20) {
		q.Add(q, step)
	}
	return q
}

func TestMinimumPartyCountForDegree(t *testing.T) {
	// 3 parties, degree 1 is the smallest multiplication-capable session.
	cfg := testConfig(t, 3, 1)
	results, _, err := RunProgram(cfg, "min-parties", nil, func(e *Engine) (*big.Int, error) {
		var v *big.Int
		if e.Party() == 0 {
			v = big.NewInt(9)
		}
		a, err := e.ShareBatch(0, []*big.Int{v}, 1)
		if err != nil {
			return nil, err
		}
		sq, err := e.MulBatch(a, a)
		if err != nil {
			return nil, err
		}
		return openOne(e, sq)
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Value.Int64() != 81 {
		t.Errorf("got %s, want 81", results[0].Value)
	}
}

// TestMulBatchAllocatesPerBatchNotPerElement guards the value-type share
// representation: a MulBatch allocates its slabs and one converted
// message per peer, so a batch of 64 costs the allocations of a batch
// of 8. Any per-element allocation — a math/big temporary in a split or
// a recombination, an integer boxed per element on the wire — shows up
// here as 56 more per party.
func TestMulBatchAllocatesPerBatchNotPerElement(t *testing.T) {
	const n = 3
	cfg := testConfig(t, n, 1)
	fab, err := transport.New(n)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*Engine, n)
	for me := range engines {
		// crypto/rand: the test DRBG allocates a block per 32 bytes drawn.
		if engines[me], err = NewEngineCtx(context.Background(), cfg, me, fab, rand.Reader); err != nil {
			t.Fatal(err)
		}
	}
	mulAll := func(k int) func() {
		as := make([]Share, k)
		for i := range as {
			as[i] = engines[0].ConstShare(big.NewInt(int64(i + 2)))
		}
		return func() {
			var wg sync.WaitGroup
			for _, e := range engines {
				e := e
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := e.MulBatch(as, as); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
		}
	}
	small := testing.AllocsPerRun(50, mulAll(8))
	large := testing.AllocsPerRun(50, mulAll(64))
	t.Logf("allocations per 3-party MulBatch: %.0f at k=8, %.0f at k=64", small, large)
	if large > small+8 {
		t.Errorf("MulBatch allocates per element: %.0f allocations at k=64 against %.0f at k=8", large, small)
	}
	if large > 40*n {
		t.Errorf("MulBatch of 64 makes %.0f allocations among %d parties; want a few per message", large, n)
	}
}

// FuzzGTEAgainstPlaintext checks GTEBatch against the plaintext
// comparison: n = 3 or 5 parties (odd and even sel), l ∈ [1, 32] and
// a, b reduced below 2^l, each dealt by party 0 and compared with its
// masks drawn as a sort draws them.
func FuzzGTEAgainstPlaintext(f *testing.F) {
	p, err := rand.Prime(fixedbig.NewDRBG("ssmpc-prime"), 128)
	if err != nil {
		f.Fatal(err)
	}
	for _, l := range []uint8{1, 2, 27, 32} {
		top := uint64(1)<<l - 1
		f.Add(uint8(0), l, uint64(0), uint64(0))
		f.Add(uint8(1), l, top, uint64(0))
		f.Add(uint8(0), l, uint64(0), top)
		f.Add(uint8(1), l, top, top)
		f.Add(uint8(0), l, top/2, top/2)
	}
	f.Fuzz(func(t *testing.T, sel, lIn uint8, a, b uint64) {
		n, l := 3+2*int(sel&1), 1+int(lIn%32)
		a, b = a&(1<<l-1), b&(1<<l-1)
		cfg := Config{N: n, Degree: (n - 1) / 2, P: p}
		results, _, err := RunProgram(cfg, fmt.Sprintf("gte-fuzz-%d-%d-%d-%d", n, l, a, b), nil, func(e *Engine) (*big.Int, error) {
			var secrets []*big.Int
			if e.Party() == 0 {
				secrets = []*big.Int{new(big.Int).SetUint64(a), new(big.Int).SetUint64(b)}
			}
			sh, err := e.ShareBatch(0, secrets, 2)
			if err != nil {
				return nil, err
			}
			bits, highs, err := e.RandomBits(MaskBits(l), 1, MaskWidth(l))
			if err != nil {
				return nil, err
			}
			gte, err := e.GTEBatch(sh[:1], sh[1:], l, bits, highs)
			if err != nil {
				return nil, err
			}
			return openOne(e, gte)
		})
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if a >= b {
			want = 1
		}
		for _, r := range results {
			if r.Value.Int64() != want || !r.Value.IsInt64() {
				t.Fatalf("n = %d, l = %d: party %d opened [%d ≥ %d] as %s, want %d", n, l, r.Party, a, b, r.Value, want)
			}
		}
	})
}
