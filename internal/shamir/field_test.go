package shamir

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/big"
	"testing"

	"groupranking/internal/fixedbig"
)

// testField is one prime under test, with the wide (R = 2^256) twin of
// a narrow field so the two multiply bodies can be set against each
// other on the same prime.
type testField struct {
	name string
	p    *big.Int
	f    *Field
	wide *Field // nil when p ≥ 2^128: only one body applies
}

// testFields covers every width class — the benchmark's 75 bits, the
// paper's default 110, both sides of the 2^128 limb boundary, the widest
// derivable 203 and the 256-bit ceiling — as DRBG draws like core's, plus
// two fixed primes so all three square-root branches are always present
// whatever residues the draws land on: Goldilocks (p − 1 = 2^32·odd, the
// deepest Tonelli–Shanks ladder) and 2^255 − 19 (p ≡ 5 mod 8).
func testFields(tb testing.TB) []testField {
	tb.Helper()
	var out []testField
	add := func(name string, p *big.Int) {
		f, err := NewField(p)
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		tf := testField{name: name, p: p, f: f}
		if p.BitLen() <= 128 {
			tf.wide = deriveField(p, false)
		}
		out = append(out, tf)
	}
	for _, bits := range []int{31, 64, 75, 110, 128, 129, 203, 256} {
		p, err := fixedbig.Prime(fixedbig.NewDRBG(fmt.Sprintf("field-test-%d", bits)), bits)
		if err != nil {
			tb.Fatal(err)
		}
		add(fmt.Sprintf("drbg-%d", bits), p)
	}
	goldilocks, _ := new(big.Int).SetString("ffffffff00000001", 16)
	add("goldilocks", goldilocks)
	c25519 := new(big.Int).Lsh(big.NewInt(1), 255)
	add("2^255-19", c25519.Sub(c25519, big.NewInt(19)))

	var mod4, mod8five, mod8one bool
	for _, tf := range out {
		switch {
		case tf.f.pl[0]&3 == 3:
			mod4 = true
		case tf.f.pl[0]&7 == 5:
			mod8five = true
		default:
			mod8one = true
		}
	}
	if !mod4 || !mod8five || !mod8one {
		tb.Fatalf("square-root branches not all covered: 3 mod 4 %v, 5 mod 8 %v, 1 mod 8 %v", mod4, mod8five, mod8one)
	}
	return out
}

func bigFromLimbs(l [4]uint64) *big.Int {
	var buf [32]byte
	for i, w := range l {
		binary.BigEndian.PutUint64(buf[24-8*i:], w)
	}
	return new(big.Int).SetBytes(buf[:])
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

// checkFieldOps holds every operation of f to math/big on the reduced
// operands a and b.
func checkFieldOps(t *testing.T, name string, f *Field, a, b *big.Int) {
	t.Helper()
	p := f.P()
	mod := func(x *big.Int) *big.Int { return x.Mod(x, p) }
	x, okA := f.FromBig(a)
	y, okB := f.FromBig(b)
	if !okA || !okB {
		t.Fatalf("%s: reduced operand refused", name)
	}
	eq := func(op string, got *Elem, want *big.Int) {
		t.Helper()
		if g := f.ToBig(got); g.Cmp(want) != 0 {
			t.Fatalf("%s: %s(%x, %x) = %x, want %x", name, op, a, b, g, want)
		}
		if f.narrow && got[2]|got[3] != 0 {
			t.Fatalf("%s: %s left high limbs set in a narrow field", name, op)
		}
	}
	var z Elem
	eq("roundtrip", &x, a)
	f.Add(&z, &x, &y)
	eq("add", &z, mod(new(big.Int).Add(a, b)))
	f.Sub(&z, &x, &y)
	eq("sub", &z, mod(new(big.Int).Sub(a, b)))
	f.neg(&z, &x)
	eq("neg", &z, mod(new(big.Int).Neg(a)))
	f.Mul(&z, &x, &y)
	eq("mul", &z, mod(new(big.Int).Mul(a, b)))
	z = x
	f.Mul(&z, &z, &z) // aliased
	eq("sqr", &z, mod(new(big.Int).Mul(a, a)))

	if xl, yl := limbsFromBig(a), limbsFromBig(b); xl.less(&yl) != (a.Cmp(b) < 0) {
		t.Fatalf("%s: less(%x, %x) wrong", name, a, b)
	}

	wantInv := new(big.Int).ModInverse(a, p)
	if wantInv == nil {
		wantInv = new(big.Int) // inv(0) = 0
	}
	f.Inv(&z, &x)
	eq("inv", &z, wantInv)

	e := [4]uint64(limbsFromBig(b))
	f.exp(&z, &x, &e)
	eq("exp", &z, new(big.Int).Exp(a, b, p))

	// A residue by construction, then a itself (a residue or not).
	var sq Elem
	f.Mul(&sq, &x, &x)
	if !f.Sqrt(&z, &sq) {
		t.Fatalf("%s: sqrt refused the square of %x", name, a)
	}
	eq("sqrt(a²)", &z, canonicalRoot(mod(new(big.Int).Mul(a, a)), p))
	z = Elem{7}
	if want := canonicalRoot(a, p); want == nil {
		if f.Sqrt(&z, &x) {
			t.Fatalf("%s: sqrt accepted the non-residue %x", name, a)
		}
		if z != (Elem{7}) {
			t.Fatalf("%s: sqrt wrote its output on a non-residue", name)
		}
	} else {
		if !f.Sqrt(&z, &x) {
			t.Fatalf("%s: sqrt refused the residue %x", name, a)
		}
		eq("sqrt", &z, want)
	}

	// Batch inversion with zeros in the batch, first and in the middle.
	var ab Elem
	f.Mul(&ab, &x, &y)
	batch := []Elem{{}, x, y, {}, ab, x}
	want := make([]*big.Int, len(batch))
	for i := range batch {
		if want[i] = new(big.Int).ModInverse(f.ToBig(&batch[i]), p); want[i] == nil {
			want[i] = new(big.Int)
		}
	}
	f.InvBatch(batch)
	for i := range batch {
		eq(fmt.Sprintf("invBatch[%d]", i), &batch[i], want[i])
	}

	// Reduce takes what FromBig refuses.
	z = f.Reduce(new(big.Int).Add(a, new(big.Int).Mul(p, b)))
	eq("reduce(a+p·b)", &z, a)
	z = f.Reduce(new(big.Int).Neg(a))
	eq("reduce(−a)", &z, mod(new(big.Int).Neg(a)))

	// The slab conversion agrees with the one-element conversion.
	for i, v := range f.ToBigs([]Elem{x, y, {}}) {
		if want := []*big.Int{a, b, new(big.Int)}[i]; v.Cmp(want) != 0 {
			t.Fatalf("%s: ToBigs[%d] = %x, want %x", name, i, v, want)
		}
	}
}

// FuzzFieldAgainstBig holds every limb-field operation to math/big on
// primes of every width class. The operands arrive as raw 256-bit
// values: anything at or above p is not a field element and must be
// refused at the conversion boundary, after which the operands are
// reduced and every operation checked — on the field as NewField builds
// it and, below 2^128, on its four-limb twin, which sets the two
// multiply bodies against each other.
func FuzzFieldAgainstBig(f *testing.F) {
	fields := testFields(f)
	max := ^uint64(0)
	for which, tf := range fields {
		w := uint8(which)
		pm1 := limbsFromBig(new(big.Int).Sub(tf.p, big.NewInt(1)))
		pl := tf.f.pl
		f.Add(w, uint64(0), uint64(0), uint64(0), uint64(0), uint64(1), uint64(0), uint64(0), uint64(0))
		f.Add(w, pm1[0], pm1[1], pm1[2], pm1[3], pm1[0], pm1[1], pm1[2], pm1[3])
		f.Add(w, pl[0], pl[1], pl[2], pl[3], uint64(2), uint64(0), uint64(0), uint64(0)) // p itself
		f.Add(w, max, max, uint64(0), uint64(0), max, uint64(0), uint64(0), uint64(0))
		f.Add(w, max, max, max, max, uint64(0), uint64(0), max, max)
		rng := fixedbig.NewDRBG("field-fuzz-seeds-" + tf.name)
		for i := 0; i < 8; i++ {
			var raw [64]byte
			rng.Read(raw[:])
			l := make([]uint64, 8)
			for k := range l {
				l[k] = binary.BigEndian.Uint64(raw[8*k:])
			}
			f.Add(w, l[0], l[1], l[2], l[3], l[4], l[5], l[6], l[7])
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, a0, a1, a2, a3, b0, b1, b2, b3 uint64) {
		tf := fields[int(which)%len(fields)]
		a, b := bigFromLimbs([4]uint64{a0, a1, a2, a3}), bigFromLimbs([4]uint64{b0, b1, b2, b3})
		for _, v := range []*big.Int{a, b, new(big.Int).Neg(a), new(big.Int).Lsh(a, 8), nil} {
			want := v != nil && v.Sign() >= 0 && v.Cmp(tf.p) < 0
			if _, ok := tf.f.FromBig(v); ok != want {
				t.Fatalf("%s: FromBig(%x) = %v", tf.name, v, ok)
			}
		}
		a.Mod(a, tf.p)
		b.Mod(b, tf.p)
		checkFieldOps(t, tf.name, tf.f, a, b)
		if tf.wide != nil {
			checkFieldOps(t, tf.name+"/four-limb", tf.wide, a, b)
		}
	})
}

// TestRandMatchesRandInt pins the Rand stream contract: on the same
// DRBG stream Rand returns the values fixedbig.RandInt (crypto/rand.Int)
// returns and leaves the stream at the same position, so every seeded
// share is the one the math/big engine dealt.
func TestRandMatchesRandInt(t *testing.T) {
	for _, tf := range testFields(t) {
		limb, ref := fixedbig.NewDRBG("rand-stream-"+tf.name), fixedbig.NewDRBG("rand-stream-"+tf.name)
		for i := 0; i < 10000; i++ {
			got, err := tf.f.Rand(limb)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fixedbig.RandInt(ref, tf.p)
			if err != nil {
				t.Fatal(err)
			}
			if g := tf.f.ToBig(&got); g.Cmp(want) != 0 {
				t.Fatalf("%s draw %d: Rand %x, RandInt %x", tf.name, i, g, want)
			}
		}
		var a, b [64]byte
		limb.Read(a[:])
		ref.Read(b[:])
		if !bytes.Equal(a[:], b[:]) {
			t.Errorf("%s: streams at different positions after 10k draws", tf.name)
		}
	}
}

func TestNewFieldRefusals(t *testing.T) {
	wide := new(big.Int).Lsh(big.NewInt(1), 256)
	wide.Add(wide, big.NewInt(297)) // 2^256 + 297 is prime, and one bit too wide
	for name, p := range map[string]*big.Int{
		"nil":       nil,
		"zero":      new(big.Int),
		"negative":  big.NewInt(-7),
		"even":      big.NewInt(2),
		"composite": big.NewInt(91),
		"257 bits":  wide,
	} {
		if _, err := NewField(p); err == nil {
			t.Errorf("%s modulus accepted", name)
		}
	}
	p := big.NewInt(97)
	f1, err := NewField(p)
	if err != nil {
		t.Fatal(err)
	}
	if f2, _ := NewField(big.NewInt(97)); f1 != f2 {
		t.Error("the field of one prime was built twice")
	}
	p.SetInt64(91) // the caller's integer is not the field's
	if f1.P().Int64() != 97 {
		t.Error("field aliases the caller's modulus")
	}
}

func BenchmarkFieldMul(b *testing.B) {
	for _, bits := range []int{75, 203} {
		p, err := fixedbig.Prime(fixedbig.NewDRBG(fmt.Sprintf("field-test-%d", bits)), bits)
		if err != nil {
			b.Fatal(err)
		}
		f, err := NewField(p)
		if err != nil {
			b.Fatal(err)
		}
		x, y := f.Reduce(big.NewInt(123456789)), f.Reduce(big.NewInt(987654321))
		b.Run(fmt.Sprintf("limb-%d", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.Mul(&x, &x, &y)
			}
		})
		bx, by := f.ToBig(&x), f.ToBig(&y)
		b.Run(fmt.Sprintf("big-%d", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bx = new(big.Int).Mul(bx, by)
				bx.Mod(bx, p)
			}
		})
	}
}
