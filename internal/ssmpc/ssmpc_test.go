package ssmpc

import (
	"context"
	"crypto/rand"
	"math/big"
	"sync"
	"testing"

	"groupranking/internal/fixedbig"
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
		bits, err := e.RandomBits(k)
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

func TestBitLTPublic(t *testing.T) {
	cfg := testConfig(t, 5, 2)
	cases := []struct {
		c, r  int64
		width int
	}{
		{0, 0, 4}, {0, 1, 4}, {1, 0, 4}, {5, 5, 4}, {3, 9, 4}, {9, 3, 4},
		{14, 15, 4}, {15, 14, 4}, {7, 8, 4}, {8, 7, 4},
	}
	for _, tc := range cases {
		tc := tc
		results, _, err := RunProgram(cfg, "bitlt", nil, func(e *Engine) (*big.Int, error) {
			cBits, err := fixedbig.Bits(big.NewInt(tc.c), tc.width)
			if err != nil {
				return nil, err
			}
			var rVals []*big.Int
			if e.Party() == 0 {
				for i := 0; i < tc.width; i++ {
					rVals = append(rVals, big.NewInt(int64((tc.r>>i)&1)))
				}
			}
			rBits, err := e.ShareBatch(0, rVals, tc.width)
			if err != nil {
				return nil, err
			}
			lt, err := e.BitLTPublicBatch([][]uint8{cBits}, [][]Share{rBits})
			if err != nil {
				return nil, err
			}
			return openOne(e, lt)
		})
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if tc.c < tc.r {
			want = 1
		}
		if results[0].Value.Int64() != want {
			t.Errorf("[%d < %d]: got %s, want %d", tc.c, tc.r, results[0].Value, want)
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
			low, err := e.Mod2mBatch(x, tc.lPrime, tc.m)
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
			gte, err := e.GTEBatch(a, b, l)
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

func TestCountersAdvance(t *testing.T) {
	cfg := testConfig(t, 5, 2)
	results, fab, err := RunProgram(cfg, "counters", nil, func(e *Engine) (*big.Int, error) {
		var v *big.Int
		if e.Party() == 0 {
			v = big.NewInt(50)
		}
		a, err := e.ShareBatch(0, []*big.Int{v}, 1)
		if err != nil {
			return nil, err
		}
		gte, err := e.GTEBatch(a, a, 8)
		if err != nil {
			return nil, err
		}
		return openOne(e, gte)
	})
	if err != nil {
		t.Fatal(err)
	}
	c := results[0].Counters
	if c.Mults == 0 || c.Rounds == 0 || c.Opens == 0 {
		t.Errorf("counters did not advance: %+v", c)
	}
	if fab.Stats().TotalBytes() == 0 {
		t.Error("no bytes recorded on the fabric")
	}
	// A single comparison should cost on the order of 3l+κ multiplications.
	if c.Mults > 1000 {
		t.Errorf("comparison cost implausibly high: %d mults", c.Mults)
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

func TestGTEFieldTooSmall(t *testing.T) {
	p, err := rand.Prime(fixedbig.NewDRBG("small-prime"), 32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{N: 3, Degree: 1, P: p}
	_, _, err = RunProgram(cfg, "too-small", nil, func(e *Engine) (*big.Int, error) {
		var v *big.Int
		if e.Party() == 0 {
			v = big.NewInt(1)
		}
		a, err := e.ShareBatch(0, []*big.Int{v}, 1)
		if err != nil {
			return nil, err
		}
		if _, err := e.GTEBatch(a, a, 16); err != nil {
			return nil, err
		}
		return big.NewInt(0), nil
	})
	if err == nil {
		t.Error("GTE with an undersized field should fail")
	}
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
