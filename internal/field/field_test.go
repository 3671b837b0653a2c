package field

import (
	"fmt"
	"math/big"
	"sync"
	"testing"

	"groupranking/internal/fixedbig"
)

// fieldCase is one modulus the tests run at: the field New builds for it
// and the Montgomery fields of the same modulus to hold its bodies
// against, the four-limb one when the width table gave it fewer limbs and
// the plain one of its width when New gave it a shaped body (mul3 for
// the fold, mul4 for P-256's).
type fieldCase struct {
	name string
	p    *big.Int
	f    Field
	wide *Field // nil when f is already four limbs
	mont *Field // nil unless f runs the fold or P-256's body
}

// fieldCases covers every modulus either stack runs on or sits next to:
// the three curve primes; P-192 (2^192 − 2^64 − 1), the widest modulus
// the three-limb bodies take, whose carry word a curve prime never drives
// near 2^192; Goldilocks (p − 1 = 2^32·odd, the deepest Tonelli–Shanks
// ladder the SS field's square root meets) and 2^255 − 19 (p ≡ 5 mod 8);
// DRBG primes drawn like the SS stack's: the benchmark's 75 bits, the
// paper's default 110, and both sides of each width boundary; the primes
// 2^160 − c on both sides of the fold's edge, c just below 2^32 (the
// fold's largest carries) and c just above (Montgomery); and two 256-bit
// DRBG primes with p₀ = 2^64 − 1, one with P-256's zero p₂ and one with
// p₂ ≠ 0, near misses that must run mul4, since P-256's body is
// written on its prime's own limbs.
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
		if m := withWidth(p, f.width); m.body != f.body {
			c.mont = &m
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
	add("p160-c-below-2^32", pseudoMersenne160(1<<32-1, -2))
	add("p160-c-above-2^32", pseudoMersenne160(1<<32+1, 2))
	add("drbg-256-p256-shape", p256Shaped("field-test-p256-shape", false))
	add("drbg-256-p2-nonzero", p256Shaped("field-test-p2-nonzero", true))
	return cases
})

// p256Shaped returns the first 256-bit prime with p₀ = 2^64 − 1 and
// DRBG-drawn p₁, p₂, p₃, with p₂ = 0 (P-256's zero limb) or p₂ ≠ 0.
// p₃'s top two bits are set: p > 3·2^254 keeps p256Operands' products
// reachable.
func p256Shaped(label string, nearMiss bool) *big.Int {
	rng := fixedbig.NewDRBG(label)
	for {
		var buf [32]byte
		if _, err := rng.Read(buf[:]); err != nil {
			panic(err)
		}
		l := fromBytes(&buf)
		l[0] = ^uint64(0)
		l[3] |= 3 << 62
		if !nearMiss {
			l[2] = 0
		} else if l[2] == 0 {
			continue
		}
		if p := bigFromLimbs(l); p.ProbablyPrime(20) {
			return p
		}
	}
}

// pseudoMersenne160 returns the first prime 2^160 − c for c = from,
// from + step, ….
func pseudoMersenne160(from, step int64) *big.Int {
	top := new(big.Int).Lsh(big.NewInt(1), 160)
	for c := from; ; c += step {
		if p := new(big.Int).Sub(top, big.NewInt(c)); p.ProbablyPrime(20) {
			return p
		}
	}
}

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
var fieldOpNames = [...]string{"add", "sub", "neg", "mul", "mul a·a", "sqr", "halve", "inv", "mul aliased", "sqr aliased", "sub aliased"}

// fieldOps applies every operation to the reduced values a and b and
// returns the results out of the field's form, in fieldOpNames order.
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
	f.Sqr(&got, &fa)
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
	f.Sqr(&got, &got)
	put()
	got = fa
	f.Sub(&got, &fb, &got)
	put()
	return out
}

// checkFieldOps holds every operation on the reduced values a and b to
// its math/big definition modulo p, the square root included; Sqr, plain
// and aliased, is held to the same a² as Mul(a, a).
func checkFieldOps(t testing.TB, f *Field, p, a, b *big.Int) {
	t.Helper()
	fa, _ := f.FromBig(a)
	if back := f.ToBig(&fa); back.Cmp(a) != 0 {
		t.Fatalf("round trip of %x gave %x", a, back)
	}
	mod := func(v *big.Int) *big.Int { return v.Mod(v, p) }
	inv := new(big.Int).ModInverse(a, p)
	if inv == nil {
		inv = new(big.Int) // a = 0
	}
	half := new(big.Int).ModInverse(big.NewInt(2), p)
	sq := mod(new(big.Int).Mul(a, a))
	want := [...]*big.Int{
		mod(new(big.Int).Add(a, b)),
		mod(new(big.Int).Sub(a, b)),
		mod(new(big.Int).Neg(a)),
		mod(new(big.Int).Mul(a, b)),
		sq,
		sq,
		mod(half.Mul(half, a)),
		inv,
		sq,
		sq,
		mod(new(big.Int).Sub(b, a)),
	}
	for i, have := range fieldOps(t, f, a, b) {
		if have.Cmp(want[i]) != 0 {
			t.Fatalf("%s(%x, %x) = %x, want %x", fieldOpNames[i], a, b, have, want[i])
		}
	}
	checkSqrt(t, f, p, a, b)
}

// canonicalRoot is the reference for Sqrt: the smaller of the two roots
// math/big finds, nil for a non-residue.
func canonicalRoot(v, p *big.Int) *big.Int {
	w := new(big.Int).ModSqrt(v, p)
	if w == nil {
		return nil
	}
	if other := new(big.Int).Sub(p, w); other.Cmp(w) < 0 {
		return other
	}
	return w
}

// checkSqrt holds exp and Sqrt to math/big on the reduced values a and
// b: a^b, the root of a² (a residue by construction) and the root of a
// itself, a residue or not.
func checkSqrt(t testing.TB, f *Field, p, a, b *big.Int) {
	t.Helper()
	x, _ := f.FromBig(a)
	var z Elem
	e := Limbs(b)
	if f.exp(&z, &x, &e); f.ToBig(&z).Cmp(new(big.Int).Exp(a, b, p)) != 0 {
		t.Fatalf("exp(%x, %x) = %x", a, b, f.ToBig(&z))
	}
	var sq Elem
	f.Sqr(&sq, &x)
	want := canonicalRoot(new(big.Int).Mod(new(big.Int).Mul(a, a), p), p)
	if !f.Sqrt(&z, &sq) || f.ToBig(&z).Cmp(want) != 0 {
		t.Fatalf("sqrt(%x²) = %x, want %x", a, f.ToBig(&z), want)
	}
	z = Elem{7}
	want = canonicalRoot(a, p)
	switch ok := f.Sqrt(&z, &x); {
	case want == nil && (ok || z != Elem{7}):
		t.Fatalf("sqrt accepted the non-residue %x or wrote its output", a)
	case want != nil && (!ok || f.ToBig(&z).Cmp(want) != 0):
		t.Fatalf("sqrt(%x) = %x (%v), want %x", a, f.ToBig(&z), ok, want)
	}
}

// checkCase runs checkFieldOps at c's modulus and holds every result to
// that of the Montgomery bodies of the same modulus: the four-limb one
// below four limbs, mul3 when the field folds and mul4 on P-256's shape.
func checkCase(t testing.TB, c *fieldCase, a, b *big.Int) {
	t.Helper()
	checkFieldOps(t, &c.f, c.p, a, b)
	got := fieldOps(t, &c.f, a, b)
	for _, ref := range []*Field{c.wide, c.mont} {
		if ref == nil {
			continue
		}
		want := fieldOps(t, ref, a, b)
		for i := range got {
			if got[i].Cmp(want[i]) != 0 {
				t.Fatalf("%s: %s(%x, %x) = %x, the %d-limb Montgomery body gives %x", c.name, fieldOpNames[i], a, b, got[i], ref.width, want[i])
			}
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

// TestFieldBodyTable pins the body every modulus gets: the fold for
// 2^160 − c with c below 2^32, that is secp160r1 and the largest such
// prime; P-256's body for P-256's prime alone; and the plain Montgomery
// body of its width everywhere else, the primes just past the fold's
// edge and the two DRBG primes with P-256's p₀ included, so that neither
// a curve loses its body nor an SS prime or a near miss falls onto one.
// The fold's constant is pinned too, and Field.Fold and Field.P256,
// which hand the shaped bodies to the curve kernel, report true exactly
// where the body is theirs.
func TestFieldBodyTable(t *testing.T) {
	top := new(big.Int).Lsh(big.NewInt(1), 160)
	folds := map[string]uint64{
		"secp160r1":         1<<31 + 1,
		"p160-c-below-2^32": top.Sub(top, caseNamed(t, "p160-c-below-2^32").p).Uint64(),
	}
	shapes := map[string]body{
		"secp160r1":         foldBody,
		"p160-c-below-2^32": foldBody,
		"secp256r1":         p256Body,
	}
	names := map[body]string{mont2: "mul2", mont3: "mul3", mont4: "mul4", foldBody: "the fold", p256Body: "P-256's"}
	for _, c := range fieldCases() {
		want, ok := shapes[c.name]
		if !ok {
			want = mont2 + body(c.f.width-2)
		}
		if c.f.body != want {
			t.Errorf("%s: body %s, want %s", c.name, names[c.f.body], names[want])
		}
		if want := folds[c.name]; c.f.fold != want {
			t.Errorf("%s: fold constant %#x, want %#x (0 is not the fold)", c.name, c.f.fold, want)
		}
		if _, got := c.f.Fold(); got != (want == foldBody) {
			t.Errorf("%s: Field.Fold reports %v", c.name, got)
		}
		if _, got := c.f.P256(); got != (c.name == "secp256r1") {
			t.Errorf("%s: Field.P256 reports %v", c.name, got)
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
		// one is R mod p for the body's R: 2^(64·width) on the Montgomery
		// bodies, 1 on the fold.
		rBits := 64 * f.width
		if f.body == foldBody {
			rBits = 0
		}
		r := new(big.Int).Lsh(big.NewInt(1), uint(rBits))
		if got := bigFromLimbs(f.one); got.Cmp(r.Mod(r, p)) != 0 {
			t.Fatalf("%s: the field's one is %x, want 2^%d mod p", c.name, got, rBits)
		}
		if one := f.ToBig(&f.one); one.Cmp(big.NewInt(1)) != 0 {
			t.Fatalf("%s: the field's one decodes to %x", c.name, one)
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

// FuzzFieldAgainstBig holds every field operation, Sqr and Sqrt
// included, to math/big at each fieldCases modulus (the three curve
// primes among them), the narrow bodies to the four-limb ones, the fold
// to mul3 and P-256's body (P256's by-value Add, Sub, Mul and Sqr) to
// mul4, with foldOperands seeded at each modulus that folds and
// p256Operands at each of P-256's shape. The
// operands arrive as raw limbs: values at or above p are not field
// elements, so FromBig must refuse them and Reduce take them to v mod p;
// the checks then run on the reduced operands.
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
	for which, c := range cases {
		var pairs [][2]*big.Int
		switch {
		case c.f.body == foldBody:
			pairs = foldOperands(c.p, c.f.fold)
		case p256Shape(&c):
			pairs = p256Operands(c.p)
		}
		for _, xy := range pairs {
			x, y := Limbs(xy[0]), Limbs(xy[1])
			f.Add(uint8(which), x[0], x[1], x[2], x[3], y[0], y[1], y[2], y[3])
		}
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

// foldOperands returns operand pairs that drive Fold.Mul at p = 2^160 − c
// through its rare paths, which random operands reach with odds near
// 2^-64 or worse: squares of p − 1, p − 2, 2^160 − 1 (above p, Reduce's
// to take), 2^159, c and 2^128 − 1; and two products x·y = a·2^160 with
// a = ⌊top/c⌋, whose first fold is s = a·c, within c below top. With
// top = 2^161 − 1 the second fold lands at or above p and the final
// subtraction fires; with top = 2^160 + 2^128 − 1 the second fold's carry
// ripples through the middle limb into the top one.
func foldOperands(p *big.Int, c uint64) [][2]*big.Int {
	one := big.NewInt(1)
	pow := func(e uint) *big.Int { return new(big.Int).Lsh(one, e) }
	var pairs [][2]*big.Int
	for _, v := range []*big.Int{
		new(big.Int).Sub(p, one),
		new(big.Int).Sub(p, big.NewInt(2)),
		new(big.Int).Sub(pow(160), one),
		pow(159),
		new(big.Int).SetUint64(c),
		new(big.Int).Sub(pow(128), one),
	} {
		pairs = append(pairs, [2]*big.Int{v, v})
	}
	// x = 2^(160−j) and y = a·2^j are both below p for 2^j below c/2.
	bc := new(big.Int).SetUint64(c)
	j := uint(bc.BitLen() - 2)
	for _, top := range []*big.Int{
		new(big.Int).Sub(pow(161), one),
		new(big.Int).Sub(new(big.Int).Add(pow(160), pow(128)), one),
	} {
		a := new(big.Int).Div(top, bc)
		pairs = append(pairs, [2]*big.Int{pow(160 - j), a.Lsh(a, j)})
	}
	return pairs
}

// p256Shape reports whether c's modulus has P-256's shape, four limbs
// with p₀ = 2^64 − 1 and p₂ = 0: P-256 itself, on its own body, and the
// DRBG prime drawn with the shape, on mul4.
func p256Shape(c *fieldCase) bool {
	return c.f.width == 4 && c.f.pl[0] == ^uint64(0) && c.f.pl[2] == 0
}

// p256Operands returns operand pairs that drive a four-limb Montgomery
// body at a p of P-256's shape (P256.Mul and P256.Sqr at P-256, mul4 at
// the DRBG prime of the shape) through their rare paths: squares of p − 1,
// p − 2 and 2^256 − 1 (above p, Reduce's to take); and a product and a
// square whose Montgomery sum (t + M·p)/2^256 is 2^256 + δ for a small
// δ, so that the last carry of the reduction ripples through three zero
// limbs into the top word before the final subtraction. Random operands
// reach that with odds near 2^-192. The pairs are the plain values
// whose field forms are those operands (v·R⁻¹ mod p), since the fuzz
// target enters them through FromBig.
func p256Operands(p *big.Int) [][2]*big.Int {
	one := big.NewInt(1)
	r := new(big.Int).Lsh(one, 256)
	rInv := new(big.Int).ModInverse(r, p)
	plain := func(v *big.Int) *big.Int { return new(big.Int).Mod(new(big.Int).Mul(v, rInv), p) }
	var pairs [][2]*big.Int
	for _, v := range []*big.Int{
		new(big.Int).Sub(p, one),
		new(big.Int).Sub(p, big.NewInt(2)),
		new(big.Int).Sub(r, one),
	} {
		pairs = append(pairs, [2]*big.Int{v, v})
	}
	// The product: x·y + M·p = R·U with U = 2^256 + 1 and M < R. For
	// y = p − 1 − j, M = R·U·p⁻¹ mod y makes y divide x·y; the first j
	// whose quotient x is below p gives the pair.
	ru := new(big.Int).Mul(r, new(big.Int).Add(r, one))
	for j := int64(1); ; j++ {
		y := new(big.Int).Sub(p, big.NewInt(j))
		m := new(big.Int).ModInverse(p, y)
		m.Mod(m.Mul(m, ru), y)
		x := new(big.Int).Sub(ru, new(big.Int).Mul(m, p))
		if x.Sign() >= 0 && x.Div(x, y).Cmp(p) < 0 {
			pairs = append(pairs, [2]*big.Int{plain(x), plain(y)})
			break
		}
	}
	// The square: x² + M·p = R·U for U = 2^256 + δ, x the larger root of
	// R·U mod p, for the first δ that makes R·U a residue; then
	// M = (R·U − x²)/p lies in [0, R).
	for d := int64(1); ; d++ {
		ru := new(big.Int).Mul(r, new(big.Int).Add(r, big.NewInt(d)))
		x := new(big.Int).ModSqrt(new(big.Int).Mod(ru, p), p)
		if x == nil {
			continue
		}
		if other := new(big.Int).Sub(p, x); other.Cmp(x) > 0 {
			x = other
		}
		m := ru.Sub(ru, new(big.Int).Mul(x, x))
		if m.Sign() >= 0 && m.Div(m, p).Cmp(r) < 0 {
			pairs = append(pairs, [2]*big.Int{plain(x), plain(x)})
			break
		}
	}
	return pairs
}

// TestP256OperandsReachTheTopWord checks that p256Operands' product and
// square reach what they are built for at every modulus of P-256's
// shape: a Montgomery sum (x·y + M·p)/2^256 of 2^256 + δ with δ < 2^64.
func TestP256OperandsReachTheTopWord(t *testing.T) {
	r := new(big.Int).Lsh(big.NewInt(1), 256)
	for _, c := range fieldCases() {
		if !p256Shape(&c) {
			continue
		}
		nInv := new(big.Int).ModInverse(c.p, r)
		pairs := p256Operands(c.p)
		for _, xy := range pairs[len(pairs)-2:] {
			x := new(big.Int).Mod(new(big.Int).Mul(xy[0], r), c.p)
			y := new(big.Int).Mod(new(big.Int).Mul(xy[1], r), c.p)
			prod := new(big.Int).Mul(x, y)
			m := new(big.Int).Neg(prod)
			m.Mod(m.Mul(m, nInv), r)
			u := m.Add(prod, m.Mul(m, c.p))
			if u.Div(u, r).Sub(u, r); u.Sign() < 0 || u.BitLen() > 64 {
				t.Errorf("%s: the Montgomery sum of %x·%x is 2^256 + %x", c.name, x, y, u)
			}
		}
	}
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

// BenchmarkFieldMul runs Mul at each benchFields modulus, and on
// secp160r1 and P-256 also the plain Montgomery body of the same width
// that the shape's body replaced (secp160r1-mont: mul3 for the fold;
// secp256r1-mont: mul4 for P-256's shape), so that both bodies show side
// by side. Each product feeds the next (a dependent chain, latency);
// the -indep variants run four such chains interleaved, so that four
// products are in flight at once (throughput), and still report ns per
// product. secp256r1-byvalue runs P256.Mul on P256Elem values, as the
// curve kernel's P-256 formulas call it, without Field.Mul's switch
// and pointers.
func BenchmarkFieldMul(b *testing.B) {
	run := func(name string, f *Field, xs *[256]Elem) {
		b.Run(name, func(b *testing.B) {
			acc := f.One()
			for i := 0; i < b.N; i++ {
				f.Mul(&acc, &acc, &xs[i&255])
			}
			benchSink = acc
		})
	}
	indep := func(name string, f *Field, xs *[256]Elem) {
		b.Run(name+"-indep", func(b *testing.B) {
			a0, a1, a2, a3 := xs[0], xs[1], xs[2], xs[3]
			for i := 0; i < b.N; i += 4 {
				f.Mul(&a0, &a0, &xs[i&255])
				f.Mul(&a1, &a1, &xs[(i+1)&255])
				f.Mul(&a2, &a2, &xs[(i+2)&255])
				f.Mul(&a3, &a3, &xs[(i+3)&255])
			}
			f.Add(&a0, &a0, &a1)
			f.Add(&a2, &a2, &a3)
			f.Add(&benchSink, &a0, &a2)
		})
	}
	for _, bf := range benchFields {
		f, xs := benchOperands(b, bf.name)
		run(bf.bench, f, xs)
		indep(bf.bench, f, xs)
		if mont := caseNamed(b, bf.name).mont; mont != nil {
			var ys [256]Elem
			for i := range xs {
				ys[i], _ = mont.FromBig(f.ToBig(&xs[i]))
			}
			run(bf.bench+"-mont", mont, &ys)
		}
	}
	pd, xs := p256BenchOperands(b)
	b.Run("secp256r1-byvalue", func(b *testing.B) {
		acc := pd.Load(&xs[0])
		for i := 0; i < b.N; i++ {
			acc = pd.Mul(acc, pd.Load(&xs[i&255]))
		}
		benchSink = acc.Elem()
	})
}

// p256BenchOperands returns P-256's by-value arithmetic and the
// benchmarks' operands at its prime.
func p256BenchOperands(b *testing.B) (P256, *[256]Elem) {
	f, xs := benchOperands(b, "secp256r1")
	pd, ok := f.P256()
	if !ok {
		b.Fatal("secp256r1 does not have P-256's body")
	}
	return pd, xs
}

// BenchmarkFieldSqr runs Sqr at each benchFields modulus, as the
// exponentiation ladder does: each square fed the last; and
// secp256r1-byvalue runs P256.Sqr on a P256Elem, as BenchmarkFieldMul's
// row of that name runs P256.Mul.
func BenchmarkFieldSqr(b *testing.B) {
	for _, bf := range benchFields {
		f, xs := benchOperands(b, bf.name)
		b.Run(bf.bench, func(b *testing.B) {
			acc := xs[0]
			for i := 0; i < b.N; i++ {
				f.Sqr(&acc, &acc)
			}
			benchSink = acc
		})
	}
	pd, xs := p256BenchOperands(b)
	b.Run("secp256r1-byvalue", func(b *testing.B) {
		acc := pd.Load(&xs[0])
		for i := 0; i < b.N; i++ {
			acc = pd.Sqr(acc)
		}
		benchSink = acc.Elem()
	})
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

// BenchmarkFieldSqrt runs Sqrt at each benchFields modulus beside
// big.Int.ModSqrt on the same operands (-big), the decompression the
// curve decoder ran before.
func BenchmarkFieldSqrt(b *testing.B) {
	for _, bf := range benchFields {
		f, xs := benchOperands(b, bf.name)
		var sq [256]Elem
		bigs := make([]*big.Int, len(xs))
		for i := range xs {
			f.Sqr(&sq[i], &xs[i])
			bigs[i] = f.ToBig(&sq[i])
		}
		b.Run(bf.bench, func(b *testing.B) {
			var z Elem
			for i := 0; i < b.N; i++ {
				f.Sqrt(&z, &sq[i&255])
			}
			benchSink = z
		})
		b.Run(bf.bench+"-big", func(b *testing.B) {
			z := new(big.Int)
			for i := 0; i < b.N; i++ {
				z.ModSqrt(bigs[i&255], f.p)
			}
		})
	}
}

var benchSink Elem
