package group

import (
	"math/big"
	"testing"

	"groupranking/internal/fixedbig"
)

// kernelCurves returns the three named curves, all kernel-backed.
func kernelCurves() []*ECGroup {
	return []*ECGroup{Secp160r1(), Secp224r1(), Secp256r1()}
}

// bigFromLimbs reads four little-endian limbs as an integer, without
// going through the code under test.
func bigFromLimbs(l [4]uint64) *big.Int {
	v := new(big.Int)
	for i := 3; i >= 0; i-- {
		v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(l[i]))
	}
	return v
}

// checkFieldOps holds every montField operation on the reduced values
// a and b to its math/big definition modulo p.
func checkFieldOps(t testing.TB, f *montField, p, a, b *big.Int) {
	t.Helper()
	var fa, fb, got fe
	if !f.fromBig(&fa, a) || !f.fromBig(&fb, b) {
		t.Fatalf("fromBig rejected reduced values %x, %x", a, b)
	}
	if back := f.toBig(&fa); back.Cmp(a) != 0 {
		t.Fatalf("Montgomery round trip of %x gave %x", a, back)
	}
	mod := func(v *big.Int) *big.Int { return v.Mod(v, p) }
	check := func(op string, want *big.Int) {
		t.Helper()
		if !got.less(&f.p) {
			t.Fatalf("%s(%x, %x) left an unreduced result", op, a, b)
		}
		if have := f.toBig(&got); have.Cmp(want) != 0 {
			t.Fatalf("%s(%x, %x) = %x, want %x", op, a, b, have, want)
		}
	}
	f.add(&got, &fa, &fb)
	check("add", mod(new(big.Int).Add(a, b)))
	f.sub(&got, &fa, &fb)
	check("sub", mod(new(big.Int).Sub(a, b)))
	f.neg(&got, &fa)
	check("neg", mod(new(big.Int).Neg(a)))
	f.mul(&got, &fa, &fb)
	check("mul", mod(new(big.Int).Mul(a, b)))
	f.sqr(&got, &fa)
	check("sqr", mod(new(big.Int).Mul(a, a)))
	got = fa
	f.halve(&got)
	half := new(big.Int).ModInverse(big.NewInt(2), p)
	check("halve", mod(half.Mul(half, a)))
	f.inv(&got, &fa)
	want := new(big.Int).ModInverse(a, p)
	if want == nil {
		want = new(big.Int) // a = 0
	}
	check("inv", want)
	// Aliased destinations.
	got = fa
	f.mul(&got, &got, &got)
	check("mul aliased", mod(new(big.Int).Mul(a, a)))
	got = fa
	f.sub(&got, &fb, &got)
	check("sub aliased", mod(new(big.Int).Sub(b, a)))
}

func TestFieldRoundTrip(t *testing.T) {
	for _, g := range kernelCurves() {
		f, p := &g.kern.montField, g.p
		if got := limbsToBig(&f.p); got.Cmp(p) != 0 {
			t.Fatalf("%s: modulus limbs read back as %x", g.name, got)
		}
		if f.n0*f.p[0] != ^uint64(0) {
			t.Fatalf("%s: n0 is not −p⁻¹ mod 2^64", g.name)
		}
		if one := f.toBig(&f.one); one.Cmp(big.NewInt(1)) != 0 {
			t.Fatalf("%s: Montgomery one decodes to %x", g.name, one)
		}
		rng := fixedbig.NewDRBG("field-rt-" + g.name)
		for i := 0; i < 50; i++ {
			v, err := fixedbig.RandInt(rng, p)
			if err != nil {
				t.Fatal(err)
			}
			var x fe
			if !f.fromBig(&x, v) {
				t.Fatalf("%s: fromBig rejected %x", g.name, v)
			}
			if got := f.toBig(&x); got.Cmp(v) != 0 {
				t.Fatalf("%s: round trip: got %x, want %x", g.name, got, v)
			}
		}
		// Only reduced values are field elements.
		for _, bad := range []*big.Int{
			p,
			new(big.Int).Add(p, big.NewInt(1)),
			big.NewInt(-1),
			new(big.Int).Lsh(big.NewInt(1), 256),
			new(big.Int).Lsh(big.NewInt(1), 4096),
		} {
			var x fe
			if f.fromBig(&x, bad) {
				t.Fatalf("%s: fromBig accepted out-of-range %x", g.name, bad)
			}
		}
	}
}

func TestFieldArithmeticAgainstBig(t *testing.T) {
	for _, g := range kernelCurves() {
		rng := fixedbig.NewDRBG("field-arith-" + g.name)
		for i := 0; i < 300; i++ {
			a, _ := fixedbig.RandInt(rng, g.p)
			b, _ := fixedbig.RandInt(rng, g.p)
			checkFieldOps(t, &g.kern.montField, g.p, a, b)
		}
	}
}

func TestFieldEdgeValues(t *testing.T) {
	for _, g := range kernelCurves() {
		p := g.p
		edges := []*big.Int{
			big.NewInt(0),
			big.NewInt(1),
			big.NewInt(2),
			new(big.Int).Sub(p, big.NewInt(1)),
			new(big.Int).Sub(p, big.NewInt(2)),
			new(big.Int).Rsh(p, 1),
			limbsToBig(&g.kern.one), // R mod p
		}
		// One saturated limb at a time, where that is still below p.
		for i := 0; i < 4; i++ {
			var l [4]uint64
			l[i] = ^uint64(0)
			if v := bigFromLimbs(l); v.Cmp(p) < 0 {
				edges = append(edges, v)
			}
		}
		for _, a := range edges {
			for _, b := range edges {
				checkFieldOps(t, &g.kern.montField, p, a, b)
			}
		}
	}
}

func TestFieldInv(t *testing.T) {
	for _, g := range kernelCurves() {
		f := &g.kern.montField
		rng := fixedbig.NewDRBG("field-inv-" + g.name)
		for i := 0; i < 50; i++ {
			a, _ := fixedbig.RandNonZero(rng, g.p)
			var x, xi, prod fe
			f.fromBig(&x, a)
			f.inv(&xi, &x)
			if want := new(big.Int).ModInverse(a, g.p); f.toBig(&xi).Cmp(want) != 0 {
				t.Fatalf("%s: inv(%x) = %x, want %x", g.name, a, f.toBig(&xi), want)
			}
			if f.mul(&prod, &x, &xi); prod != f.one {
				t.Fatalf("%s: x·x⁻¹ ≠ 1 for x = %x", g.name, a)
			}
		}
	}
}
