package group

import (
	"bytes"
	"math/big"
	"testing"

	"groupranking/internal/field"
	"groupranking/internal/fixedbig"
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

// FuzzFieldAgainstBig holds the kernel's side of the field boundary to
// math/big at each curve modulus (the field arithmetic itself is fuzzed
// in internal/field): lift reduces raw coordinates, as a hostile peer may
// send them, to the point they stand for, and lower and normalise
// project a Jacobian point (X, Y, Z) to (X/Z², Y/Z³), with Z ≡ 0 the
// identity. The operands arrive as raw limbs, at or above p as often as
// not.
func FuzzFieldAgainstBig(f *testing.F) {
	curves := kernelCurves()
	for which, g := range curves {
		w := uint8(which)
		add := func(x, y, z *big.Int) {
			lx, ly, lz := field.Limbs(x), field.Limbs(y), field.Limbs(z)
			f.Add(w, lx[0], lx[1], lx[2], lx[3], ly[0], ly[1], ly[2], ly[3], lz[0], lz[1], lz[2], lz[3])
		}
		one, pm1, pp1 := big.NewInt(1), new(big.Int).Sub(g.p, big.NewInt(1)), new(big.Int).Add(g.p, big.NewInt(1))
		max := new(big.Int).Sub(new(big.Int).Lsh(one, 256), one)
		add(new(big.Int), new(big.Int), new(big.Int))
		add(one, one, one)
		add(pm1, pm1, pm1)
		add(g.p, g.p, g.p) // every coordinate ≡ 0, Z among them
		add(max, max, max)
		add(pp1, pm1, pp1) // Z ≡ 1, unreduced
		rng := fixedbig.NewDRBG("kernel-field-fuzz-" + g.name)
		for i := 0; i < 10; i++ {
			x, _ := fixedbig.RandBits(rng, 256)
			y, _ := fixedbig.RandInt(rng, g.p)
			z, _ := fixedbig.RandBits(rng, 256)
			add(x, y, z)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, x0, x1, x2, x3, y0, y1, y2, y3, z0, z1, z2, z3 uint64) {
		g := curves[int(which)%len(curves)]
		k, p := g.kern, g.p
		x, y, z := bigFromLimbs(x0, x1, x2, x3), bigFromLimbs(y0, y1, y2, y3), bigFromLimbs(z0, z1, z2, z3)
		mod := func(v *big.Int) *big.Int { return new(big.Int).Mod(v, p) }
		far := new(big.Int).Lsh(p, 300)
		for _, pt := range []ecPoint{{x: x, y: y}, {x: new(big.Int).Add(x, far), y: new(big.Int).Add(y, p)}} {
			a := k.lift(pt)
			if got := k.element(&a); got.x.Cmp(mod(x)) != 0 || got.y.Cmp(mod(y)) != 0 {
				t.Fatalf("%s: lift(%x, %x) = (%x, %x)", g.name, pt.x, pt.y, got.x, got.y)
			}
		}
		a := k.lift(ecPoint{x: x, y: y})
		jac := jacPt{a.x, a.y, k.Reduce(z)}
		want := ecPoint{inf: true}
		if zi := new(big.Int).ModInverse(z, p); zi != nil {
			zi2 := mod(new(big.Int).Mul(zi, zi))
			zi3 := mod(new(big.Int).Mul(zi2, zi))
			want = ecPoint{x: mod(zi2.Mul(zi2, x)), y: mod(zi3.Mul(zi3, y))}
		}
		same := func(a, b ecPoint) bool {
			return a.inf == b.inf && (a.inf || a.x.Cmp(b.x) == 0 && a.y.Cmp(b.y) == 0)
		}
		if got := k.lower(&jac); !same(got, want) {
			t.Fatalf("%s: lower(%x, %x, %x) = %v, want %v", g.name, x, y, z, got, want)
		}
		batch := []jacPt{jac, {}, k.toJac(&a)}
		wants := []ecPoint{want, {inf: true}, {x: mod(x), y: mod(y)}}
		for i, n := range k.normalise(batch) {
			if got := k.element(&n); !same(got, wants[i]) {
				t.Fatalf("%s: normalise entry %d of (%x, %x, %x) = %v, want %v", g.name, i, x, y, z, got, wants[i])
			}
		}
	})
}

// bigFromLimbs reads little-endian limbs as an integer, without going
// through the code under test.
func bigFromLimbs(l ...uint64) *big.Int {
	v := new(big.Int)
	for i := len(l) - 1; i >= 0; i-- {
		v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(l[i]))
	}
	return v
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
