package group

import (
	"fmt"
	"math/big"
	"sync"
	"testing"

	"groupranking/internal/fixedbig"
)

// kernelCurves returns the three named curves, all kernel-backed.
func kernelCurves() []*ECGroup {
	return []*ECGroup{Secp160r1(), Secp224r1(), Secp256r1()}
}

// fieldCase is one modulus the field tests run at: the field
// newMontField builds for it and, when that field is narrow, the
// four-limb field of the same modulus to hold its bodies against.
type fieldCase struct {
	name string
	p    *big.Int
	f    montField
	wide *montField // nil when f is already wide
}

// fieldCases returns the three curve moduli, then moduli no named curve
// reaches: secp160r1's top limb is below 2^32, so the narrow bodies'
// carry word is never driven near 2^192 by a curve. The P-192 prime
// 2^192 − 2^64 − 1 is the widest modulus the narrow bodies take; the
// DRBG primes of 161, 191, 192 and 193 bits sit on either side of the
// width boundary.
var fieldCases = sync.OnceValue(func() []fieldCase {
	var cases []fieldCase
	add := func(name string, p *big.Int) {
		f, ok := newMontField(p)
		if !ok {
			panic("newMontField rejected test modulus " + name)
		}
		c := fieldCase{name: name, p: p, f: f}
		if f.narrow {
			w := deriveMontField(p, false)
			c.wide = &w
		}
		cases = append(cases, c)
	}
	for _, g := range kernelCurves() {
		add(g.name, g.p)
	}
	p192 := new(big.Int).Lsh(big.NewInt(1), 192)
	p192.Sub(p192, new(big.Int).Lsh(big.NewInt(1), 64)).Sub(p192, big.NewInt(1))
	add("p192", p192)
	rng := fixedbig.NewDRBG("field-moduli")
	for _, bits := range []int{161, 191, 192, 193} {
		p, err := fixedbig.Prime(rng, bits)
		if err != nil {
			panic(err)
		}
		add(fmt.Sprintf("prime%d", bits), p)
	}
	return cases
})

// bigFromLimbs reads four little-endian limbs as an integer, without
// going through the code under test.
func bigFromLimbs(l [4]uint64) *big.Int {
	v := new(big.Int)
	for i := 3; i >= 0; i-- {
		v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(l[i]))
	}
	return v
}

// fieldOpNames names the results of fieldOps, in order.
var fieldOpNames = [...]string{"add", "sub", "neg", "mul", "sqr", "halve", "inv", "mul aliased", "sub aliased"}

// fieldOps applies every montField operation to the reduced values a
// and b and returns the results out of Montgomery form, in fieldOpNames
// order. Every result must be reduced, and in a narrow field its top
// limb zero.
func fieldOps(t testing.TB, f *montField, a, b *big.Int) (out [len(fieldOpNames)]*big.Int) {
	t.Helper()
	var fa, fb, got fe
	if !f.fromBig(&fa, a) || !f.fromBig(&fb, b) {
		t.Fatalf("fromBig rejected reduced values %x, %x", a, b)
	}
	n := 0
	put := func() {
		t.Helper()
		if !got.less(&f.p) || f.narrow && got[3] != 0 {
			t.Fatalf("%s(%x, %x) left an unreduced result %x", fieldOpNames[n], a, b, got)
		}
		out[n] = f.toBig(&got)
		n++
	}
	f.add(&got, &fa, &fb)
	put()
	f.sub(&got, &fa, &fb)
	put()
	f.neg(&got, &fa)
	put()
	f.mul(&got, &fa, &fb)
	put()
	f.sqr(&got, &fa)
	put()
	got = fa
	f.halve(&got)
	put()
	f.inv(&got, &fa)
	put()
	got = fa
	f.mul(&got, &got, &got)
	put()
	got = fa
	f.sub(&got, &fb, &got)
	put()
	return out
}

// checkFieldOps holds every montField operation on the reduced values a
// and b to its math/big definition modulo p.
func checkFieldOps(t testing.TB, f *montField, p, a, b *big.Int) {
	t.Helper()
	var fa fe
	f.fromBig(&fa, a)
	if back := f.toBig(&fa); back.Cmp(a) != 0 {
		t.Fatalf("Montgomery round trip of %x gave %x", a, back)
	}
	mod := func(v *big.Int) *big.Int { return v.Mod(v, p) }
	inv := new(big.Int).ModInverse(a, p)
	if inv == nil {
		inv = new(big.Int) // a = 0
	}
	half := new(big.Int).ModInverse(big.NewInt(2), p)
	want := [...]*big.Int{
		mod(new(big.Int).Add(a, b)),
		mod(new(big.Int).Sub(a, b)),
		mod(new(big.Int).Neg(a)),
		mod(new(big.Int).Mul(a, b)),
		mod(new(big.Int).Mul(a, a)),
		mod(half.Mul(half, a)),
		inv,
		mod(new(big.Int).Mul(a, a)),
		mod(new(big.Int).Sub(b, a)),
	}
	for i, have := range fieldOps(t, f, a, b) {
		if have.Cmp(want[i]) != 0 {
			t.Fatalf("%s(%x, %x) = %x, want %x", fieldOpNames[i], a, b, have, want[i])
		}
	}
}

// checkCase runs checkFieldOps at c's modulus and, for a narrow field,
// holds every result of the narrow bodies to the wide ones.
func checkCase(t testing.TB, c *fieldCase, a, b *big.Int) {
	t.Helper()
	checkFieldOps(t, &c.f, c.p, a, b)
	if c.wide == nil {
		return
	}
	narrow, wide := fieldOps(t, &c.f, a, b), fieldOps(t, c.wide, a, b)
	for i := range narrow {
		if narrow[i].Cmp(wide[i]) != 0 {
			t.Fatalf("%s: %s(%x, %x): narrow body %x, wide body %x", c.name, fieldOpNames[i], a, b, narrow[i], wide[i])
		}
	}
}

func TestFieldRoundTrip(t *testing.T) {
	for _, c := range fieldCases() {
		f, p := &c.f, c.p
		if got := limbsToBig(&f.p); got.Cmp(p) != 0 {
			t.Fatalf("%s: modulus limbs read back as %x", c.name, got)
		}
		if f.n0*f.p[0] != ^uint64(0) {
			t.Fatalf("%s: n0 is not −p⁻¹ mod 2^64", c.name)
		}
		if f.narrow != (p.BitLen() <= 192) {
			t.Fatalf("%s: %d-bit modulus chose narrow = %v", c.name, p.BitLen(), f.narrow)
		}
		rBits := uint(256)
		if f.narrow {
			rBits = 192
		}
		r := new(big.Int).Lsh(big.NewInt(1), rBits)
		if got := limbsToBig(&f.one); got.Cmp(r.Mod(r, p)) != 0 {
			t.Fatalf("%s: Montgomery one is %x, want 2^%d mod p", c.name, got, rBits)
		}
		if one := f.toBig(&f.one); one.Cmp(big.NewInt(1)) != 0 {
			t.Fatalf("%s: Montgomery one decodes to %x", c.name, one)
		}
		rng := fixedbig.NewDRBG("field-rt-" + c.name)
		for i := 0; i < 50; i++ {
			v, err := fixedbig.RandInt(rng, p)
			if err != nil {
				t.Fatal(err)
			}
			var x fe
			if !f.fromBig(&x, v) {
				t.Fatalf("%s: fromBig rejected %x", c.name, v)
			}
			if got := f.toBig(&x); got.Cmp(v) != 0 {
				t.Fatalf("%s: round trip: got %x, want %x", c.name, got, v)
			}
		}
		// Only reduced values are field elements.
		for _, bad := range []*big.Int{
			p,
			new(big.Int).Add(p, big.NewInt(1)),
			big.NewInt(-1),
			new(big.Int).Lsh(big.NewInt(1), 192),
			new(big.Int).Lsh(big.NewInt(1), 256),
			new(big.Int).Lsh(big.NewInt(1), 4096),
		} {
			var x fe
			if bad.Cmp(p) < 0 && bad.Sign() >= 0 {
				continue // 2^192 is a field element of a wide modulus
			}
			if f.fromBig(&x, bad) {
				t.Fatalf("%s: fromBig accepted out-of-range %x", c.name, bad)
			}
		}
	}
}

func TestFieldArithmeticAgainstBig(t *testing.T) {
	for _, c := range fieldCases() {
		rng := fixedbig.NewDRBG("field-arith-" + c.name)
		for i := 0; i < 300; i++ {
			a, _ := fixedbig.RandInt(rng, c.p)
			b, _ := fixedbig.RandInt(rng, c.p)
			checkCase(t, &c, a, b)
		}
	}
}

func TestFieldEdgeValues(t *testing.T) {
	for _, c := range fieldCases() {
		p := c.p
		edges := []*big.Int{
			big.NewInt(0),
			big.NewInt(1),
			big.NewInt(2),
			new(big.Int).Sub(p, big.NewInt(1)),
			new(big.Int).Sub(p, big.NewInt(2)),
			new(big.Int).Rsh(p, 1),
			limbsToBig(&c.f.one), // R mod p
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
				checkCase(t, &c, a, b)
			}
		}
	}
}

func TestFieldInv(t *testing.T) {
	for _, c := range fieldCases() {
		f := &c.f
		rng := fixedbig.NewDRBG("field-inv-" + c.name)
		for i := 0; i < 50; i++ {
			a, _ := fixedbig.RandNonZero(rng, c.p)
			var x, xi, prod fe
			f.fromBig(&x, a)
			f.inv(&xi, &x)
			if want := new(big.Int).ModInverse(a, c.p); f.toBig(&xi).Cmp(want) != 0 {
				t.Fatalf("%s: inv(%x) = %x, want %x", c.name, a, f.toBig(&xi), want)
			}
			if f.mul(&prod, &x, &xi); prod != f.one {
				t.Fatalf("%s: x·x⁻¹ ≠ 1 for x = %x", c.name, a)
			}
		}
	}
}
