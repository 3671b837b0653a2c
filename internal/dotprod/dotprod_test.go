package dotprod

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"

	"groupranking/internal/fixedbig"
)

func testParams(t *testing.T) Params {
	t.Helper()
	p, err := rand.Prime(fixedbig.NewDRBG("dotprod-field"), 128)
	if err != nil {
		t.Fatal(err)
	}
	return DefaultSRange(p)
}

func bigVec(vals ...int64) []*big.Int {
	out := make([]*big.Int, len(vals))
	for i, v := range vals {
		out[i] = big.NewInt(v)
	}
	return out
}

func plainDot(w, v []*big.Int, alpha, p *big.Int) *big.Int {
	acc := new(big.Int).Set(alpha)
	for i := range w {
		acc.Add(acc, new(big.Int).Mul(w[i], v[i]))
	}
	return acc.Mod(acc, p)
}

func TestComputeMatchesPlainDot(t *testing.T) {
	params := testParams(t)
	rng := fixedbig.NewDRBG("dotprod-basic")
	cases := []struct {
		name  string
		w, v  []*big.Int
		alpha int64
	}{
		{"ones", bigVec(1, 1, 1), bigVec(1, 1, 1), 0},
		{"mixed", bigVec(3, -2, 7, 0), bigVec(5, 4, -1, 9), 12},
		{"single", bigVec(42), bigVec(17), 5},
		{"zero alpha", bigVec(10, 20), bigVec(-3, 4), 0},
		{"negative alpha", bigVec(2, 3), bigVec(4, 5), -7},
		{"long", bigVec(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), bigVec(12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1), 99},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Compute(params, tc.w, tc.v, big.NewInt(tc.alpha), rng)
			if err != nil {
				t.Fatal(err)
			}
			want := plainDot(tc.w, tc.v, big.NewInt(tc.alpha), params.P)
			if got.Cmp(want) != 0 {
				t.Errorf("got %s, want %s", got, want)
			}
		})
	}
}

func TestComputeQuick(t *testing.T) {
	params := testParams(t)
	rng := fixedbig.NewDRBG("dotprod-quick")
	f := func(w0, w1, w2, v0, v1, v2 int32, alpha int32) bool {
		w := bigVec(int64(w0), int64(w1), int64(w2))
		v := bigVec(int64(v0), int64(v1), int64(v2))
		a := big.NewInt(int64(alpha))
		got, err := Compute(params, w, v, a, rng)
		if err != nil {
			return false
		}
		return got.Cmp(plainDot(w, v, a, params.P)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMessageFlowSplitRoles(t *testing.T) {
	params := testParams(t)
	rng := fixedbig.NewDRBG("dotprod-flow")
	w := bigVec(7, -3, 11)
	v := bigVec(2, 5, -4)
	alpha := big.NewInt(1000)

	bob, msg, err := NewBob(params, w, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Matrix shape invariants: s within range, d = len(w)+1.
	s := len(msg.QX)
	if s < SMin || s > SMax {
		t.Errorf("s = %d outside [%d, %d]", s, SMin, SMax)
	}
	if msg.QX[0].Len() != len(w)+1 {
		t.Errorf("d = %d, want %d", msg.QX[0].Len(), len(w)+1)
	}

	reply, err := AliceRespond(params, msg, v, alpha)
	if err != nil {
		t.Fatal(err)
	}
	got, err := bob.Finish(reply)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(plainDot(w, v, alpha, params.P)) != 0 {
		t.Error("split-role run disagrees with plain dot product")
	}
}

func TestFinishSingleUse(t *testing.T) {
	params := testParams(t)
	rng := fixedbig.NewDRBG("dotprod-once")
	bob, msg, err := NewBob(params, bigVec(1, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := AliceRespond(params, msg, bigVec(3, 4), big.NewInt(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Finish(reply); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Finish(reply); err == nil {
		t.Error("second Finish accepted")
	}
}

func TestDimensionMismatch(t *testing.T) {
	params := testParams(t)
	rng := fixedbig.NewDRBG("dotprod-dim")
	_, msg, err := NewBob(params, bigVec(1, 2, 3), rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AliceRespond(params, msg, bigVec(1, 2), big.NewInt(0)); err == nil {
		t.Error("short v accepted")
	}
	if _, err := AliceRespond(params, msg, bigVec(1, 2, 3, 4), big.NewInt(0)); err == nil {
		t.Error("long v accepted")
	}
}

func TestValidation(t *testing.T) {
	rng := fixedbig.NewDRBG("dotprod-val")
	if _, _, err := NewBob(Params{}, bigVec(1), rng); err == nil {
		t.Error("missing modulus accepted")
	}
	p, _ := rand.Prime(rng, 64)
	if _, _, err := NewBob(DefaultSRange(p), nil, rng); err == nil {
		t.Error("empty vector accepted")
	}
}

func TestAliceLearnsMaskedViewOnly(t *testing.T) {
	// Structural privacy check: two different Bob vectors of the same
	// dimension produce QX/c'/g flows with identical shapes, and repeated
	// runs with the same vector produce different flows (masking is
	// randomised). This is the observable the HBC security argument
	// relies on.
	params := testParams(t)
	rng := fixedbig.NewDRBG("dotprod-priv")
	w := bigVec(5, 6, 7)
	_, m1, err := NewBob(params, w, rng)
	if err != nil {
		t.Fatal(err)
	}
	_, m2, err := NewBob(params, w, rng)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(m1.CPrime.Data, m2.CPrime.Data) {
		t.Error("two runs produced identical c' vectors; masking looks deterministic")
	}
}

func TestLargeFieldValues(t *testing.T) {
	// Values near the field size must wrap correctly.
	params := testParams(t)
	rng := fixedbig.NewDRBG("dotprod-large")
	big1 := new(big.Int).Sub(params.P, big.NewInt(1))
	w := []*big.Int{big1, big.NewInt(1)}
	v := []*big.Int{big1, big.NewInt(0)}
	got, err := Compute(params, w, v, big.NewInt(0), rng)
	if err != nil {
		t.Fatal(err)
	}
	want := plainDot(w, v, big.NewInt(0), params.P)
	if got.Cmp(want) != 0 {
		t.Errorf("got %s, want %s", got, want)
	}
}
