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
	f.Add(g.AppendElement(nil, g.Generator()))
	f.Add([]byte{0})
	f.Add(bytes.Repeat([]byte{0xFF}, g.ElementLen()))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := g.Decode(data)
		if err != nil {
			return
		}
		// Any accepted element must re-encode to the same bytes and be a
		// quadratic residue of full order (validated via q-exponent).
		if !bytes.Equal(g.AppendElement(nil, e), data) {
			t.Fatal("decode/encode not idempotent")
		}
		if !g.IsIdentity(g.Exp(e, g.Order())) {
			t.Fatal("accepted element outside the order-q subgroup")
		}
	})
}

// FuzzECDecode holds Decode's decompression on the limb field to a
// math/big oracle, big.Int.ModSqrt, on each named curve: both accept or
// both refuse, and on accepting both give the same point, which
// re-encodes to the input. The seeds are the generator under both parity
// tags, x = 0 under both tags, x = p and an all-ones x (at or above p),
// the identity's zero bytes and a one-byte identity, the smallest x with
// no point over it, and a wrong tag.
func FuzzECDecode(f *testing.F) {
	curves := kernelCurves()
	for which, g := range curves {
		w := uint8(which)
		enc := func(tag byte, x *big.Int) []byte {
			b := make([]byte, g.elemLen)
			b[0] = tag
			x.FillBytes(b[1:])
			return b
		}
		gen := g.AppendElement(nil, g.Generator())
		f.Add(w, gen)
		f.Add(w, append([]byte{gen[0] ^ 1}, gen[1:]...))
		f.Add(w, enc(0x02, new(big.Int)))
		f.Add(w, enc(0x03, new(big.Int)))
		f.Add(w, enc(0x02, g.p))
		f.Add(w, append([]byte{0x03}, bytes.Repeat([]byte{0xFF}, g.elemLen-1)...))
		f.Add(w, make([]byte, g.elemLen))
		f.Add(w, []byte{0x00})
		f.Add(w, enc(0x02, noRootAbscissa(g)))
		f.Add(w, append([]byte{0x04}, gen[1:]...))
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		g := curves[int(which)%len(curves)]
		e, err := g.Decode(data)
		want, ok := decodeWithModSqrt(g, data)
		if (err == nil) != ok {
			t.Fatalf("%s: Decode(%x) = %v, the math/big oracle accepts=%v", g.name, data, err, ok)
		}
		if err != nil {
			return
		}
		if got := g.unwrap(e); got.inf != want.inf || !got.inf && (got.x.Cmp(want.x) != 0 || got.y.Cmp(want.y) != 0) {
			t.Fatalf("%s: Decode(%x) = %v, math/big gives %v", g.name, data, got, want)
		}
		if !bytes.Equal(g.AppendElement(nil, e), data) || Of(e) != Group(g) {
			t.Fatalf("%s: decoded %x does not re-encode to itself under its group", g.name, data)
		}
	})
}

// decodeWithModSqrt is the math/big reference decompression: the
// fixed-width SEC1 form, x below p, y from big.Int.ModSqrt with the
// tag's parity.
func decodeWithModSqrt(g *ECGroup, data []byte) (ecPoint, bool) {
	if len(data) != g.elemLen {
		return ecPoint{}, false
	}
	x := new(big.Int).SetBytes(data[1:])
	switch data[0] {
	case 0x00:
		return ecPoint{inf: true}, x.Sign() == 0
	case 0x02, 0x03:
	default:
		return ecPoint{}, false
	}
	if x.Cmp(g.p) >= 0 {
		return ecPoint{}, false
	}
	y := new(big.Int).ModSqrt(curveRHS(g, x), g.p)
	if y == nil {
		return ecPoint{}, false
	}
	if y.Bit(0) != uint(data[0]&1) {
		if y.Sign() == 0 {
			return ecPoint{}, false
		}
		y.Sub(g.p, y)
	}
	return ecPoint{x: x, y: y}, true
}

// curveRHS is x³ + ax + b mod p in math/big.
func curveRHS(g *ECGroup, x *big.Int) *big.Int {
	rhs := new(big.Int).Mul(x, x)
	rhs.Mul(rhs, x).Add(rhs, new(big.Int).Mul(g.a, x)).Add(rhs, g.b)
	return rhs.Mod(rhs, g.p)
}

// noRootAbscissa returns the smallest x with no point over it on g.
func noRootAbscissa(g *ECGroup) *big.Int {
	for x := big.NewInt(0); ; x.Add(x, big.NewInt(1)) {
		if big.Jacobi(curveRHS(g, x), g.p) == -1 {
			return x
		}
	}
}

// FuzzFieldAgainstBig holds the kernel's side of the field boundary to
// math/big at each curve modulus (the field arithmetic itself is fuzzed
// in internal/field): lift reduces raw coordinates, as a hostile peer may
// send them, to the point they stand for; lower and normalise project a
// Jacobian point (X, Y, Z) to (X/Z², Y/Z³), with Z ≡ 0 the identity; and
// equalAffine, the zero test's comparison, agrees with lower without
// projecting. The operands arrive as raw limbs, at or above p as often as
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
		got := k.lower(&jac)
		if !same(got, want) {
			t.Fatalf("%s: lower(%x, %x, %x) = %v, want %v", g.name, x, y, z, got, want)
		}
		// The projection itself, the point (x, y) it was lifted from (equal
		// when Z ≡ 1), and the identity (equal when Z ≡ 0).
		for _, other := range []ecPoint{got, {x: mod(x), y: mod(y)}, {inf: true}} {
			o := k.lift(other)
			if eq := k.equalAffine(&jac, &o); eq != same(want, other) {
				t.Fatalf("%s: equalAffine((%x, %x, %x), %v) = %v, lower gives %v", g.name, x, y, z, other, eq, want)
			}
		}
		if id := (jacPt{}); !k.equalAffine(&id, &affPt{inf: true}) || k.equalAffine(&id, &a) {
			t.Fatalf("%s: equalAffine misreads the Jacobian identity", g.name)
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

// FuzzValidateAgainstBig holds Validate's limb check of a received point
// to the curve equation written out in math/big: both coordinates in
// [0, p) and y² ≡ x³ + ax + b (mod p). The seeds are the base point and
// its negation, coordinates at p and p + 1 (in range only modulo p), an
// on-curve x shifted by p, negative coordinates, and the off-curve
// neighbours y ± 1.
func FuzzValidateAgainstBig(f *testing.F) {
	curves := kernelCurves()
	for which, g := range curves {
		w := uint8(which)
		add := func(x, y *big.Int) {
			f.Add(w, x.Sign() < 0, new(big.Int).Abs(x).Bytes(), y.Sign() < 0, new(big.Int).Abs(y).Bytes())
		}
		one := big.NewInt(1)
		pp1 := new(big.Int).Add(g.p, one)
		h := g.unwrap(g.Exp(g.Generator(), big.NewInt(0x5A5A)))
		for _, pt := range []ecPoint{g.unwrap(g.Generator()), h} {
			add(pt.x, pt.y)
			add(pt.x, new(big.Int).Sub(g.p, pt.y))
			add(g.p, pt.y)
			add(pt.x, g.p)
			add(pp1, pt.y)
			add(pt.x, pp1)
			add(new(big.Int).Add(pt.x, g.p), pt.y)
			add(new(big.Int).Neg(pt.x), pt.y)
			add(pt.x, new(big.Int).Add(pt.y, one))
			add(pt.x, new(big.Int).Sub(pt.y, one))
		}
		add(new(big.Int), new(big.Int))
	}
	f.Fuzz(func(t *testing.T, which uint8, negX bool, xBytes []byte, negY bool, yBytes []byte) {
		if len(xBytes) > 40 || len(yBytes) > 40 {
			return
		}
		g := curves[int(which)%len(curves)]
		x, y := new(big.Int).SetBytes(xBytes), new(big.Int).SetBytes(yBytes)
		if negX {
			x.Neg(x)
		}
		if negY {
			y.Neg(y)
		}
		inRange := func(v *big.Int) bool { return v.Sign() >= 0 && v.Cmp(g.p) < 0 }
		lhs := new(big.Int).Mul(y, y)
		want := inRange(x) && inRange(y) && lhs.Sub(lhs, curveRHS(g, x)).Mod(lhs, g.p).Sign() == 0
		if err := g.validateElement(ecPoint{g: g, x: x, y: y}); (err == nil) != want {
			t.Fatalf("%s: Validate(%x, %x) = %v, the curve equation says valid=%v", g.name, x, y, err, want)
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

// FuzzFoldAgainstGeneric holds secp160r1's fold formulas (fold.go) to the
// generic formulas of kernel.go on the same field, coordinate for
// coordinate (fuzzFormulasAgainstGeneric).
func FuzzFoldAgainstGeneric(f *testing.F) {
	fuzzFormulasAgainstGeneric(f, secp160r1, func(k *curveKernel) bool { return k.fold != nil })
}

// FuzzP256AgainstGeneric holds P-256's formulas (p256.go) to the generic
// formulas of kernel.go on the same field, coordinate for coordinate
// (fuzzFormulasAgainstGeneric).
func FuzzP256AgainstGeneric(f *testing.F) {
	fuzzFormulasAgainstGeneric(f, secp256r1, func(k *curveKernel) bool { return k.p256 })
}

// fuzzFormulasAgainstGeneric holds the point formulas newCurveKernel
// picks for curve d's field body, which shaped reports it picked, to the
// generic formulas of kernel.go on the same field, coordinate for
// coordinate: double, addJac and addAffine of a point p and a point q
// chosen among a second point, p itself in another Jacobian
// representation (P + P through the addition tail), −p (P + (−P)) and the
// identity on either side or both. Both arrive with a random Z, and the
// tail's two special cases are also held to what they must give: 2P and
// the identity. The kernel is built from the curve's constants, not
// through the curve's constructor, whose validation (n·G = ∞) would run
// the formulas under test before they could be compared.
func fuzzFormulasAgainstGeneric(f *testing.F, d curveDef, shaped func(*curveKernel) bool) {
	prime, n := mustHex(d.name, "p", d.p), mustHex(d.name, "n", d.n)
	fast, err := newCurveKernel(prime, new(big.Int).Sub(prime, big.NewInt(3)), mustHex(d.name, "b", d.b), n)
	if err != nil || !shaped(fast) {
		f.Fatalf("%s's kernel does not run the formulas of its field's body (%v)", d.name, err)
	}
	generic := *fast
	generic.fold, generic.p256 = nil, false
	n1 := new(big.Int).Sub(n, big.NewInt(1)).Bytes()
	for sel := uint8(0); sel < 6; sel++ {
		f.Add(sel, []byte{1}, []byte{2}, uint64(1), uint64(1))
		f.Add(sel, n1, []byte{3}, uint64(0), ^uint64(0))
		f.Add(sel, []byte{0x5a, 0xa5, 0x0f}, n1, uint64(1)<<63|12345, uint64(7))
	}
	base := affPt{x: generic.Reduce(mustHex(d.name, "gx", d.gx)), y: generic.Reduce(mustHex(d.name, "gy", d.gy))}
	point := func(e []byte, l uint64) jacPt {
		var r jacPt
		el := field.Limbs(new(big.Int).SetBytes(e))
		generic.scalarMul(&r, &base, &el)
		// (λ²X, λ³Y, λZ) is the same point; a zero λ reads as one.
		lam := generic.Reduce(new(big.Int).SetUint64(max(l, 1)))
		var l2 field.Elem
		generic.Sqr(&l2, &lam)
		generic.Mul(&r.x, &r.x, &l2)
		generic.Mul(&l2, &l2, &lam)
		generic.Mul(&r.y, &r.y, &l2)
		generic.Mul(&r.z, &r.z, &lam)
		return r
	}
	f.Fuzz(func(t *testing.T, sel uint8, aBytes, bBytes []byte, la, lb uint64) {
		if len(aBytes) > 32 || len(bBytes) > 32 {
			return
		}
		p, q := point(aBytes, la), point(bBytes, lb)
		switch sel % 6 {
		case 1:
			q = point(aBytes, lb)
		case 2:
			q = point(aBytes, lb)
			generic.Neg(&q.y, &q.y)
		case 3:
			q = jacPt{}
		case 4:
			p = jacPt{}
		case 5:
			p, q = jacPt{}, jacPt{}
		}
		qa := generic.normalise([]jacPt{q})[0]
		var got, want jacPt
		fast.double(&got, &p)
		if generic.double(&want, &p); got != want {
			t.Fatalf("sel %d: double(%v) = %v on %s's body, %v generic", sel, p, got, d.name, want)
		}
		fast.addJac(&got, &p, &q)
		if generic.addJac(&want, &p, &q); got != want {
			t.Fatalf("sel %d: addJac(%v, %v) = %v on %s's body, %v generic", sel, p, q, got, d.name, want)
		}
		var sum jacPt
		fast.addAffine(&sum, &p, &qa)
		if generic.addAffine(&want, &p, &qa); sum != want {
			t.Fatalf("sel %d: addAffine(%v, %v) = %v on %s's body, %v generic", sel, p, qa, sum, d.name, want)
		}
		if p.z.IsZero() {
			return
		}
		switch sel % 6 {
		case 1:
			var twice jacPt
			fast.double(&twice, &p)
			if a, b := fast.lower(&got), fast.lower(&twice); a.x.Cmp(b.x) != 0 || a.y.Cmp(b.y) != 0 {
				t.Fatalf("P + P = %v, 2P = %v", a, b)
			}
		case 2:
			if !got.z.IsZero() || !sum.z.IsZero() {
				t.Fatalf("P + (−P) = %v and %v, not the identity", got, sum)
			}
		}
	})
}
