package group

import (
	"bytes"
	"math/big"
	"testing"
)

func FuzzDLDecode(f *testing.F) {
	g := MODP1024()
	f.Add(g.Encode(g.Generator()))
	f.Add([]byte{0})
	f.Add(bytes.Repeat([]byte{0xFF}, g.ElementLen()))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := g.Decode(data)
		if err != nil {
			return
		}
		// Any accepted element must re-encode to the same bytes and be a
		// quadratic residue of full order (validated via q-exponent).
		if !bytes.Equal(g.Encode(e), data) {
			t.Fatal("decode/encode not idempotent")
		}
		if !g.IsIdentity(g.Exp(e, g.Order())) {
			t.Fatal("accepted element outside the order-q subgroup")
		}
	})
}

func FuzzECDecode(f *testing.F) {
	g := oracleOf(Secp160r1())
	f.Add(g.Encode(g.Generator()))
	f.Add([]byte{0x00})
	f.Add([]byte{0x04, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := g.Decode(data)
		if err != nil {
			return
		}
		if !bytes.Equal(g.Encode(e), data) {
			t.Fatal("decode/encode not idempotent")
		}
	})
}

// FuzzFieldAgainstBig holds every limb-field operation to math/big at
// each fieldCases modulus — the three curve primes and the moduli around
// the 192-bit width boundary — and, below it, the narrow bodies to the
// wide ones. The operands arrive as raw limbs; values at or above p are
// not field elements and must be refused at the conversion boundary.
func FuzzFieldAgainstBig(f *testing.F) {
	cases := fieldCases()
	max := ^uint64(0)
	for which, c := range cases {
		w := uint8(which)
		pm1 := limbsFromBig(new(big.Int).Sub(c.p, big.NewInt(1)))
		f.Add(w, uint64(0), uint64(0), uint64(0), uint64(0), uint64(1), uint64(0), uint64(0), uint64(0))
		f.Add(w, pm1[0], pm1[1], pm1[2], pm1[3], pm1[0], pm1[1], pm1[2], pm1[3])
		f.Add(w, max, uint64(0), uint64(0), uint64(0), uint64(0), max, uint64(0), uint64(0))
		f.Add(w, uint64(0), uint64(0), max, uint64(0), uint64(0), uint64(0), uint64(0), max)
		f.Add(w, max, max, pm1[2], pm1[3], pm1[0], max, pm1[2], pm1[3])
		pl := c.f.p
		f.Add(w, pl[0], pl[1], pl[2], pl[3], uint64(1), uint64(0), uint64(0), uint64(0)) // p itself
	}
	f.Fuzz(func(t *testing.T, which uint8, a0, a1, a2, a3, b0, b1, b2, b3 uint64) {
		c := &cases[int(which)%len(cases)]
		a, b := bigFromLimbs([4]uint64{a0, a1, a2, a3}), bigFromLimbs([4]uint64{b0, b1, b2, b3})
		reduced := true
		for _, v := range []*big.Int{a, b} {
			var x fe
			if ok := c.f.fromBig(&x, v); ok != (v.Cmp(c.p) < 0) {
				t.Fatalf("%s: fromBig(%x) = %v", c.name, v, ok)
			}
			reduced = reduced && v.Cmp(c.p) < 0
		}
		if reduced {
			checkCase(t, c, a, b)
		}
	})
}

// FuzzExpAgainstGeneric holds the kernel's Exp and Op to the math/big
// reference curve (oracle_test.go) on each named curve, over arbitrary (signed, over-order)
// exponents and a base chosen among the identity, ±G and a random point.
func FuzzExpAgainstGeneric(f *testing.F) {
	curves := kernelCurves()
	oracles := make([]refCurve, len(curves))
	for which, g := range curves {
		oracles[which] = oracleOf(g)
		w := uint8(which)
		for _, k := range edgeScalars(g.n) {
			for sel := uint8(0); sel < 4; sel++ {
				f.Add(w, sel, k.Sign() < 0, new(big.Int).Abs(k).Bytes())
			}
		}
	}
	f.Fuzz(func(t *testing.T, which, baseSel uint8, negative bool, kBytes []byte) {
		if len(kBytes) > 48 {
			return
		}
		g, oracle := curves[int(which)%len(curves)], oracles[int(which)%len(curves)]
		k := new(big.Int).SetBytes(kBytes)
		if negative {
			k.Neg(k)
		}
		var base Element
		switch baseSel % 4 {
		case 0:
			base = g.Identity()
		case 1:
			base = g.Generator()
		case 2:
			base = g.Inv(g.Generator())
		default:
			base = oracle.Exp(g.Generator(), new(big.Int).Xor(k, big.NewInt(int64(baseSel)<<8|0x5A)))
		}
		checkExpAgainstGeneric(t, g, oracle, base, k)
	})
}

// FuzzMultiExpAgainstGeneric holds MultiExp on the kernel — the shared
// Straus chain, the batch-normalised tables, the signed and over-order
// scalars — to the reference curve's composition on each named curve. The seeds
// are the cases the shared chain must survive: identity inputs, c = ±c1
// (addition's doubling and infinity branches met mid-chain), x·r ≡ 0
// (mod n), negative, zero, one-bit and over-order scalars, and
// unreduced coordinates.
func FuzzMultiExpAgainstGeneric(f *testing.F) {
	curves := kernelCurves()
	oracles := make([]refCurve, len(curves))
	for which, g := range curves {
		oracles[which] = oracleOf(g)
		w := uint8(which)
		scalars := append(edgeScalars(g.n), big.NewInt(1<<40))
		for sel := uint8(0); sel < 6; sel++ {
			for i, r := range scalars {
				x := scalars[(i+int(sel)+1)%len(scalars)]
				f.Add(w, sel, i%2 == 1, r.Sign() < 0, new(big.Int).Abs(r).Bytes(), x.Sign() < 0, new(big.Int).Abs(x).Bytes())
			}
		}
	}
	f.Fuzz(func(t *testing.T, which, sel uint8, wide, negR bool, rBytes []byte, negX bool, xBytes []byte) {
		if len(rBytes) > 48 || len(xBytes) > 48 {
			return
		}
		g, oracle := curves[int(which)%len(curves)], oracles[int(which)%len(curves)]
		r, x := new(big.Int).SetBytes(rBytes), new(big.Int).SetBytes(xBytes)
		if negR {
			r.Neg(r)
		}
		if negX {
			x.Neg(x)
		}
		a := oracle.Exp(g.Generator(), new(big.Int).Xor(r, big.NewInt(0x5A)))
		b := oracle.Exp(g.Generator(), new(big.Int).Xor(x, big.NewInt(int64(sel)<<8|0xA5)))
		c, c1 := hopPair(g, sel, a, b)
		kc, kc1 := c, c1
		if wide {
			kc, kc1 = unreduced(g, c), unreduced(g, c1)
		}
		checkMultiExpAgainstGeneric(t, g, oracle, kc, kc1, c, c1, r, x)
	})
}
