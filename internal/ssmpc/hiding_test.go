package ssmpc

import (
	"bytes"
	"fmt"
	"math/big"
	"testing"

	"groupranking/internal/field"
)

// TestProductOpeningHidesFactors: a product opened from its degree-2d
// shares with a zero-sharing added shows its value and nothing of its
// factors. At p = 11, n = 3 and d = 1, the coalition is party 0: it
// holds its shares of a and b (fixed), its own contribution Z0 to the
// zero-sharing (fixed) and the pieces Z1(1), Z2(1) the two honest
// parties deal it. Over every honest zero-sharing Z1, Z2 (all 11² pairs
// of coefficients each, dealt by the engine's degree-2d scheme), the
// opened share vectors, grouped by that view, must be distributed alike
// for (a, b) = (2, 6) and (a', b') = (3, 4), whose products agree mod 11.
// The control opens the bare products over the same enumeration, as an
// opening without the randomiser would: their distributions differ,
// which shows the comparison can fail.
func TestProductOpeningHidesFactors(t *testing.T) {
	cfg := Config{N: 3, Degree: 1, P: big.NewInt(11)}
	_, _, err := RunProgram(cfg, "hiding", nil, func(e *Engine) (struct{}, error) {
		if e.Party() != 0 {
			return struct{}{}, nil
		}
		pairs := [2][2]int64{{2, 6}, {3, 4}}
		var randomised, bare [2]map[string]map[string]int
		for i, ab := range pairs {
			var err error
			if randomised[i], err = openings(e, ab, true); err != nil {
				return struct{}{}, err
			}
			if bare[i], err = openings(e, ab, false); err != nil {
				return struct{}{}, err
			}
		}
		if !sameDistributions(randomised[0], randomised[1]) {
			t.Errorf("randomised openings of %v and %v differ for the same coalition view", pairs[0], pairs[1])
		}
		if sameDistributions(bare[0], bare[1]) {
			t.Errorf("control: bare product openings of %v and %v are distributed alike; the test has no power", pairs[0], pairs[1])
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// openings enumerates the honest parties' zero-sharings for the factors
// ab, each at coalition shares a(1) = 5 and b(1) = 7 (so that d = 1
// fixes each factor's polynomial), and returns, per coalition view, the
// count of each opened share vector. Without randomise the opened
// vector is the bare products'.
func openings(e *Engine, ab [2]int64, randomise bool) (map[string]map[string]int, error) {
	const p = 11
	elem := func(v int64) field.Elem { return e.f.Reduce(big.NewInt(v)) }
	// x ↦ v + (s − v)·x at x = 1..3: the degree-1 sharing of v whose
	// first share is s.
	shares := func(v, s int64) []Share {
		out := make([]Share, 3)
		for j := range out {
			out[j] = Share{y: elem(v + (s-v)*int64(j+1))}
		}
		return out
	}
	prods := e.Products(shares(ab[0], 5), shares(ab[1], 7))
	own := []int64{3, 10, 10} // the coalition's own zero-sharing Z0(x) = x + 2x² at x = 1..3
	deal := func(c1, c2 byte) ([]field.Elem, error) {
		pieces := make([]field.Elem, 3)
		zero := field.Elem{}
		return pieces, e.wide.Split(pieces, &zero, bytes.NewReader([]byte{c1, c2}))
	}
	out := map[string]map[string]int{}
	for h1 := 0; h1 < p*p; h1++ {
		z1, err := deal(byte(h1/p), byte(h1%p))
		if err != nil {
			return nil, err
		}
		for h2 := 0; h2 < p*p; h2++ {
			z2, err := deal(byte(h2/p), byte(h2%p))
			if err != nil {
				return nil, err
			}
			zeros := make([]Wide, 3)
			for j := range zeros {
				if randomise {
					zeros[j].y = elem(own[j])
					e.f.Add(&zeros[j].y, &zeros[j].y, &z1[j])
					e.f.Add(&zeros[j].y, &zeros[j].y, &z2[j])
				}
			}
			opened, err := e.randomise(prods, zeros)
			if err != nil {
				return nil, err
			}
			view := fmt.Sprint(e.f.ToBig(&z1[0]), e.f.ToBig(&z2[0]))
			var vec []*big.Int
			for j := range opened {
				vec = append(vec, e.f.ToBig(&opened[j]))
			}
			if out[view] == nil {
				out[view] = map[string]int{}
			}
			out[view][fmt.Sprint(vec)]++
		}
	}
	return out, nil
}

// sameDistributions reports whether two per-view counts agree.
func sameDistributions(x, y map[string]map[string]int) bool {
	if len(x) != len(y) {
		return false
	}
	for view, cx := range x {
		cy := y[view]
		if len(cx) != len(cy) {
			return false
		}
		for vec, n := range cx {
			if cy[vec] != n {
				return false
			}
		}
	}
	return true
}
