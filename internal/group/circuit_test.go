package group

import (
	"math/big"
	"testing"

	"groupranking/internal/fixedbig"
)

// circuitPeer is a peer's bit ciphertexts for the circuit checks: random
// points, then the components that meet addition's special branches —
// identities on either side or both, C = ±g (so that 1 − β is the
// identity), and a repeated pair, which the suffix sum doubles or cancels
// depending on the bits.
func circuitPeer(t *testing.T, g *ECGroup, rng *fixedbig.DRBG) [][2]Element {
	a, b := ExpGen(g, mustScalar(t, g, rng)), ExpGen(g, mustScalar(t, g, rng))
	gen, id := g.Generator(), g.Identity()
	return [][2]Element{
		{a, b}, {b, a}, {id, id}, {id, b}, {a, id}, {gen, id},
		{g.Inv(gen), b}, {gen, b}, {a, b}, {a, b}, {g.Inv(a), b},
	}
}

// circuitBits are the caller's bit patterns for l bits: all zero, all
// one, alternating, and an irregular one.
func circuitBits(l int) [][]uint8 {
	zeros, ones, alt, mixed := make([]uint8, l), make([]uint8, l), make([]uint8, l), make([]uint8, l)
	for t := range ones {
		ones[t], alt[t], mixed[t] = 1, uint8(t%2), uint8(t*5%7%2)
	}
	return [][]uint8{zeros, ones, alt, mixed}
}

// TestCompareCircuitMatchesReference holds the kernel circuit to its
// closed form evaluated on the math/big reference curve, with and without
// re-randomisers, and pins the dispatch: a group without the kernel, or a
// call without the joint key's table, computes nothing.
func TestCompareCircuitMatchesReference(t *testing.T) {
	for _, g := range kernelCurves() {
		oracle := oracleOf(g)
		rng := fixedbig.NewDRBG("circuit-vs-reference-" + g.name)
		y := ExpGen(g, mustScalar(t, g, rng))
		tab := NewFixedBaseTable(g, y)
		peer := circuitPeer(t, g, rng)
		l := len(peer)
		z := mustScalar(t, g, rng)
		rs := make([]*big.Int, l)
		for i := range rs {
			rs[i] = mustScalar(t, g, rng)
		}
		rs[1] = new(big.Int).Sub(g.n, z) // z + r ≡ 0: no mask at all
		for _, rr := range [][]*big.Int{rs, nil} {
			// The masks y^(z+r_t) and g^(z+r_t), which the bits leave alone.
			masks := make([][2]Element, l)
			for tt := range masks {
				r := new(big.Int).Set(z)
				if rr != nil {
					r.Add(r, rr[tt])
				}
				masks[tt] = [2]Element{oracle.Exp(y, r), oracle.Exp(g.Generator(), r)}
			}
			for _, bits := range circuitBits(l) {
				got, ok := CompareCircuit(g, tab, peer, bits, z, rr)
				if !ok {
					t.Fatalf("%s: the kernel circuit declined", g.name)
				}
				sign := func(v int) int64 { return 2*int64(bits[v]) - 1 }
				// pow is P^k as a short ladder: −k mod n would be a full-width one.
				pow := func(p Element, k int64) Element {
					if k < 0 {
						return oracle.Inv(oracle.Exp(p, big.NewInt(-k)))
					}
					return oracle.Exp(p, big.NewInt(k))
				}
				for tt := 0; tt < l; tt++ {
					w := int64(l - tt)
					e := w // e_t: #{v > t : b_v = 1} + (1 if b_t = 1, else w_t)
					if bits[tt] == 1 {
						e = 1
					}
					for v := tt + 1; v < l; v++ {
						e += int64(bits[v])
					}
					for i := range got[tt] {
						want := oracle.Op(pow(peer[tt][i], sign(tt)*w), masks[tt][i])
						for v := tt + 1; v < l; v++ {
							want = oracle.Op(want, pow(peer[v][i], -sign(v)))
						}
						if i == 0 {
							want = oracle.Op(want, pow(g.Generator(), e))
						}
						if !oracle.Equal(got[tt][i], want) {
							t.Fatalf("%s: bits %v, re-randomised %v: τ_%d component %d differs from the closed form", g.name, bits, rr != nil, tt, i)
						}
					}
				}
			}
		}
		if _, ok := CompareCircuit(g, nil, peer, make([]uint8, l), z, rs); ok {
			t.Errorf("%s: the circuit ran without the joint key's table", g.name)
		}
		if _, ok := CompareCircuit(oracle, tab, peer, make([]uint8, l), z, rs); ok {
			t.Errorf("%s: the circuit ran on the reference curve", g.name)
		}
	}
	toy := ToyDL256()
	if _, ok := CompareCircuit(toy, NewFixedBaseTable(toy, toy.Generator()), nil, nil, big.NewInt(1), nil); ok {
		t.Error("the circuit ran on a DL group")
	}
}

// TestZeroSetMatchesReference holds the projective zero test to C = C1^x
// on the reference curve: zero and non-zero plaintexts, identities on
// either side or both, unreduced coordinates, and keys that are zero,
// negative or over the order.
func TestZeroSetMatchesReference(t *testing.T) {
	for _, g := range kernelCurves() {
		oracle := oracleOf(g)
		rng := fixedbig.NewDRBG("zeroset-vs-reference-" + g.name)
		for _, x := range append(edgeScalars(g.n), mustScalar(t, g, rng)) {
			c1 := ExpGen(g, mustScalar(t, g, rng))
			zero := oracle.Exp(c1, x)
			cts := [][2]Element{
				{zero, c1},
				{oracle.Op(zero, g.Generator()), c1},
				{g.Inv(zero), c1},
				{unreduced(g, zero), unreduced(g, c1)},
				{g.Identity(), g.Identity()},
				{g.Generator(), g.Identity()},
				{g.Identity(), c1},
			}
			got, ok := ZeroSet(g, x, cts)
			if !ok {
				t.Fatalf("%s: the kernel zero test declined", g.name)
			}
			for i, ct := range cts {
				if want := oracle.IsIdentity(oracle.Op(ct[0], oracle.Inv(oracle.Exp(ct[1], x)))); got[i] != want {
					t.Fatalf("%s: x=%s: ciphertext %d tests %v, want %v", g.name, x, i, got[i], want)
				}
			}
		}
		if _, ok := ZeroSet(oracle, big.NewInt(1), nil); ok {
			t.Errorf("%s: the zero test ran on the reference curve", g.name)
		}
	}
}
