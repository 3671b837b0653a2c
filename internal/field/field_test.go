package field

import (
	"fmt"
	"math/big"
	"sync"
	"testing"

	"groupranking/internal/fixedbig"
)

// fieldCase is one modulus the tests run at: the field New builds for it
// and, when the width table gave it fewer than four limbs, the four-limb
// field of the same modulus to hold the narrow bodies against.
type fieldCase struct {
	name string
	p    *big.Int
	f    Field
	wide *Field // nil when f is already four limbs
}

// fieldCases covers every modulus either stack runs on or sits next to:
// the three curve primes; P-192 (2^192 − 2^64 − 1), the widest modulus
// the three-limb bodies take, whose carry word a curve prime never drives
// near 2^192; Goldilocks (p − 1 = 2^32·odd, the deepest Tonelli–Shanks
// ladder the SS field's square root meets) and 2^255 − 19 (p ≡ 5 mod 8);
// and DRBG primes drawn like the SS stack's: the benchmark's 75 bits, the
// paper's default 110, and both sides of each width boundary.
var fieldCases = sync.OnceValue(func() []fieldCase {
	var cases []fieldCase
	add := func(name string, p *big.Int) {
		f, err := New(p)
		if err != nil {
			panic(fmt.Sprintf("New refused test modulus %s: %v", name, err))
		}
		c := fieldCase{name: name, p: p, f: f}
		if f.width < 4 {
			w := withWidth(p, 4)
			c.wide = &w
		}
		cases = append(cases, c)
	}
	for _, m := range []struct{ name, hex string }{
		{"secp160r1", "ffffffffffffffffffffffffffffffff7fffffff"},
		{"secp224r1", "ffffffffffffffffffffffffffffffff000000000000000000000001"},
		{"secp256r1", "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff"},
		{"p192", "fffffffffffffffffffffffffffffffeffffffffffffffff"},
		{"goldilocks", "ffffffff00000001"},
		{"2^255-19", "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed"},
	} {
		p, _ := new(big.Int).SetString(m.hex, 16)
		add(m.name, p)
	}
	for _, bits := range []int{31, 64, 75, 110, 128, 129, 161, 191, 192, 193, 203, 256} {
		p, err := fixedbig.Prime(fixedbig.NewDRBG(fmt.Sprintf("field-test-%d", bits)), bits)
		if err != nil {
			panic(err)
		}
		add(fmt.Sprintf("drbg-%d", bits), p)
	}
	return cases
})

// caseNamed returns the field case of that name.
func caseNamed(tb testing.TB, name string) *fieldCase {
	tb.Helper()
	cases := fieldCases()
	for i := range cases {
		if cases[i].name == name {
			return &cases[i]
		}
	}
	tb.Fatalf("no field case %s", name)
	return nil
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

// fieldOpNames names the results of fieldOps, in order.
var fieldOpNames = [...]string{"add", "sub", "neg", "mul", "sqr", "halve", "inv", "sqr aliased", "sub aliased"}

// fieldOps applies every operation to the reduced values a and b and
// returns the results out of Montgomery form, in fieldOpNames order.
// Every result must be reduced, with the limbs above the field's width
// zero.
func fieldOps(t testing.TB, f *Field, a, b *big.Int) (out [len(fieldOpNames)]*big.Int) {
	t.Helper()
	fa, okA := f.FromBig(a)
	fb, okB := f.FromBig(b)
	if !okA || !okB {
		t.Fatalf("FromBig refused reduced values %x, %x", a, b)
	}
	var got Elem
	n := 0
	put := func() {
		t.Helper()
		if !got.Less(&f.pl) {
			t.Fatalf("%s(%x, %x) left an unreduced result %x", fieldOpNames[n], a, b, got)
		}
		for i := f.width; i < 4; i++ {
			if got[i] != 0 {
				t.Fatalf("%s(%x, %x) set limb %d of a %d-limb field: %x", fieldOpNames[n], a, b, i, f.width, got)
			}
		}
		out[n] = f.ToBig(&got)
		n++
	}
	f.Add(&got, &fa, &fb)
	put()
	f.Sub(&got, &fa, &fb)
	put()
	f.Neg(&got, &fa)
	put()
	f.Mul(&got, &fa, &fb)
	put()
	f.Mul(&got, &fa, &fa)
	put()
	got = fa
	f.halve(&got)
	put()
	f.Inv(&got, &fa)
	put()
	got = fa
	f.Mul(&got, &got, &got)
	put()
	got = fa
	f.Sub(&got, &fb, &got)
	put()
	return out
}

// checkFieldOps holds every operation on the reduced values a and b to
// its math/big definition modulo p.
func checkFieldOps(t testing.TB, f *Field, p, a, b *big.Int) {
	t.Helper()
	fa, _ := f.FromBig(a)
	if back := f.ToBig(&fa); back.Cmp(a) != 0 {
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

// checkCase runs checkFieldOps at c's modulus and, below four limbs,
// holds every result of the narrow bodies to the four-limb ones.
func checkCase(t testing.TB, c *fieldCase, a, b *big.Int) {
	t.Helper()
	checkFieldOps(t, &c.f, c.p, a, b)
	if c.wide == nil {
		return
	}
	narrow, wide := fieldOps(t, &c.f, a, b), fieldOps(t, c.wide, a, b)
	for i := range narrow {
		if narrow[i].Cmp(wide[i]) != 0 {
			t.Fatalf("%s: %s(%x, %x): %d-limb body %x, four-limb body %x", c.name, fieldOpNames[i], a, b, c.f.width, narrow[i], wide[i])
		}
	}
}

// TestFieldWidthTable pins the width table at its boundaries and the
// moduli New refuses.
func TestFieldWidthTable(t *testing.T) {
	for name, width := range map[string]int{
		"drbg-31": 2, "goldilocks": 2, "drbg-128": 2,
		"drbg-129": 3, "secp160r1": 3, "drbg-192": 3, "p192": 3,
		"drbg-193": 4, "secp224r1": 4, "drbg-256": 4,
	} {
		if got := caseNamed(t, name).f.Width(); got != width {
			t.Errorf("%s: %d limbs, want %d", name, got, width)
		}
	}
	wide := new(big.Int).Lsh(big.NewInt(1), 256)
	for name, p := range map[string]*big.Int{
		"nil":      nil,
		"zero":     new(big.Int),
		"negative": big.NewInt(-7),
		"even":     big.NewInt(2),
		"257 bits": wide.Add(wide, big.NewInt(297)),
	} {
		if _, err := New(p); err == nil {
			t.Errorf("%s modulus accepted", name)
		}
	}
}

func TestFieldRoundTrip(t *testing.T) {
	for _, c := range fieldCases() {
		f, p := &c.f, c.p
		if got := bigFromLimbs(f.pl); got.Cmp(p) != 0 {
			t.Fatalf("%s: modulus limbs read back as %x", c.name, got)
		}
		if f.n0*f.pl[0] != ^uint64(0) {
			t.Fatalf("%s: n0 is not −p⁻¹ mod 2^64", c.name)
		}
		r := new(big.Int).Lsh(big.NewInt(1), uint(64*f.width))
		if got := bigFromLimbs(f.one); got.Cmp(r.Mod(r, p)) != 0 {
			t.Fatalf("%s: Montgomery one is %x, want 2^%d mod p", c.name, got, 64*f.width)
		}
		if one := f.ToBig(&f.one); one.Cmp(big.NewInt(1)) != 0 {
			t.Fatalf("%s: Montgomery one decodes to %x", c.name, one)
		}
		rng := fixedbig.NewDRBG("field-rt-" + c.name)
		for i := 0; i < 50; i++ {
			v, err := fixedbig.RandInt(rng, p)
			if err != nil {
				t.Fatal(err)
			}
			x, ok := f.FromBig(v)
			if !ok {
				t.Fatalf("%s: FromBig refused %x", c.name, v)
			}
			if got := f.ToBig(&x); got.Cmp(v) != 0 {
				t.Fatalf("%s: round trip: got %x, want %x", c.name, got, v)
			}
			// Reduce takes what FromBig refuses: v + p·k and −v.
			shifted := new(big.Int).Add(v, new(big.Int).Mul(p, big.NewInt(int64(i+1))))
			if z := f.Reduce(shifted); z != x {
				t.Fatalf("%s: Reduce(v + %d·p) ≠ v", c.name, i+1)
			}
			var neg Elem
			if f.Neg(&neg, &x); f.Reduce(new(big.Int).Neg(v)) != neg {
				t.Fatalf("%s: Reduce(−v) ≠ −v", c.name)
			}
		}
		// Only reduced values are field elements.
		for _, bad := range []*big.Int{
			nil,
			p,
			new(big.Int).Add(p, big.NewInt(1)),
			big.NewInt(-1),
			new(big.Int).Lsh(big.NewInt(1), 192),
			new(big.Int).Lsh(big.NewInt(1), 256),
			new(big.Int).Lsh(big.NewInt(1), 4096),
		} {
			if bad != nil && bad.Cmp(p) < 0 && bad.Sign() >= 0 {
				continue // 2^192 is a field element of a wide modulus
			}
			if _, ok := f.FromBig(bad); ok {
				t.Fatalf("%s: FromBig accepted out-of-range %x", c.name, bad)
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
			bigFromLimbs(c.f.one), // R mod p
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
			var xi, prod Elem
			x, _ := f.FromBig(a)
			f.Inv(&xi, &x)
			if want := new(big.Int).ModInverse(a, c.p); f.ToBig(&xi).Cmp(want) != 0 {
				t.Fatalf("%s: Inv(%x) = %x, want %x", c.name, a, f.ToBig(&xi), want)
			}
			if f.Mul(&prod, &x, &xi); prod != f.one {
				t.Fatalf("%s: x·x⁻¹ ≠ 1 for x = %x", c.name, a)
			}
		}
	}
}

// FuzzFieldAgainstBig holds every field operation to math/big at each
// fieldCases modulus and, below four limbs, the narrow bodies to the
// four-limb ones. The operands arrive as raw limbs: values at or above p
// are not field elements, so FromBig must refuse them and Reduce take
// them to v mod p; the checks then run on the reduced operands.
func FuzzFieldAgainstBig(f *testing.F) {
	cases := fieldCases()
	max := ^uint64(0)
	for which, c := range cases {
		w := uint8(which)
		pm1 := Limbs(new(big.Int).Sub(c.p, big.NewInt(1)))
		pl := c.f.pl
		f.Add(w, uint64(0), uint64(0), uint64(0), uint64(0), uint64(1), uint64(0), uint64(0), uint64(0))
		f.Add(w, pm1[0], pm1[1], pm1[2], pm1[3], pm1[0], pm1[1], pm1[2], pm1[3])
		f.Add(w, pl[0], pl[1], pl[2], pl[3], uint64(2), uint64(0), uint64(0), uint64(0)) // p itself
		f.Add(w, max, uint64(0), uint64(0), uint64(0), uint64(0), max, uint64(0), uint64(0))
		f.Add(w, uint64(0), uint64(0), max, uint64(0), uint64(0), uint64(0), uint64(0), max)
		f.Add(w, max, max, pm1[2], pm1[3], pm1[0], max, pm1[2], pm1[3])
		f.Add(w, max, max, max, max, uint64(0), uint64(0), max, max)
	}
	f.Fuzz(func(t *testing.T, which uint8, a0, a1, a2, a3, b0, b1, b2, b3 uint64) {
		c := &cases[int(which)%len(cases)]
		a, b := bigFromLimbs([4]uint64{a0, a1, a2, a3}), bigFromLimbs([4]uint64{b0, b1, b2, b3})
		for _, v := range []*big.Int{a, b} {
			x, ok := c.f.FromBig(v)
			if ok != (v.Cmp(c.p) < 0) {
				t.Fatalf("%s: FromBig(%x) = %v", c.name, v, ok)
			}
			r := c.f.Reduce(v)
			if v.Mod(v, c.p); c.f.ToBig(&r).Cmp(v) != 0 || ok && r != x {
				t.Fatalf("%s: Reduce gave %x, want %x", c.name, c.f.ToBig(&r), v)
			}
		}
		checkCase(t, c, a, b)
	})
}

// benchOperands draws 256 non-zero elements of the named case's field.
// The benchmarks cycle through them: an operation fed its own output
// revisits a handful of values, and the binary Euclid's data-dependent
// branches are then learned, not paid.
func benchOperands(b *testing.B, name string) (*Field, *[256]Elem) {
	c := caseNamed(b, name)
	rng := fixedbig.NewDRBG("bench-field-" + name)
	var xs [256]Elem
	for i := range xs {
		v, err := fixedbig.RandNonZero(rng, c.p)
		if err != nil {
			b.Fatal(err)
		}
		xs[i], _ = c.f.FromBig(v)
	}
	return &c.f, &xs
}

// benchFields is one modulus per width: a 75-bit prime like the SS
// workloads' (two limbs), secp160r1 (three) and P-256 (four).
var benchFields = []struct{ bench, name string }{
	{"ss75", "drbg-75"}, {"secp160r1", "secp160r1"}, {"secp256r1", "secp256r1"},
}

func BenchmarkFieldMul(b *testing.B) {
	for _, bf := range benchFields {
		f, xs := benchOperands(b, bf.name)
		b.Run(bf.bench, func(b *testing.B) {
			acc := f.One()
			for i := 0; i < b.N; i++ {
				f.Mul(&acc, &acc, &xs[i&255])
			}
			benchSink = acc
		})
	}
}

func BenchmarkFieldInv(b *testing.B) {
	for _, bf := range benchFields {
		f, xs := benchOperands(b, bf.name)
		b.Run(bf.bench, func(b *testing.B) {
			var z Elem
			for i := 0; i < b.N; i++ {
				f.Inv(&z, &xs[i&255])
			}
			benchSink = z
		})
	}
}

var benchSink Elem
