package shamir

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/big"
	"testing"

	"groupranking/internal/field"
	"groupranking/internal/fixedbig"
)

// testField is one prime under test.
type testField struct {
	name string
	p    *big.Int
	f    *Field
}

// testFields covers every width class — the benchmark's 75 bits, the
// paper's default 110, both sides of the 2^128 limb boundary, the top of
// the three-limb class, the widest derivable 203 and the 256-bit ceiling
// — as DRBG draws like core's, plus two fixed primes so all three
// square-root branches are always present whatever residues the draws
// land on: Goldilocks (p − 1 = 2^32·odd, the deepest Tonelli–Shanks
// ladder) and 2^255 − 19 (p ≡ 5 mod 8). The shared field's arithmetic is
// tested in internal/field; these tests cover what this package adds.
func testFields(tb testing.TB) []testField {
	tb.Helper()
	var out []testField
	add := func(name string, p *big.Int) {
		f, err := NewField(p)
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		out = append(out, testField{name: name, p: p, f: f})
	}
	for _, bits := range []int{31, 64, 75, 110, 128, 129, 192, 203, 256} {
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
		switch field.Limbs(tf.p)[0] & 7 {
		case 3, 7:
			mod4 = true
		case 5:
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

// checkFieldOps holds every operation this package adds to the shared
// field to math/big on the reduced operands a and b.
func checkFieldOps(t *testing.T, name string, f *Field, a, b *big.Int) {
	t.Helper()
	p := f.P()
	mod := func(x *big.Int) *big.Int { return x.Mod(x, p) }
	x, okA := f.FromBig(a)
	y, okB := f.FromBig(b)
	if !okA || !okB {
		t.Fatalf("%s: reduced operand refused", name)
	}
	eq := func(op string, got *field.Elem, want *big.Int) {
		t.Helper()
		if g := f.ToBig(got); g.Cmp(want) != 0 {
			t.Fatalf("%s: %s(%x, %x) = %x, want %x", name, op, a, b, g, want)
		}
	}
	var z field.Elem
	e := field.Limbs(b)
	f.exp(&z, &x, &e)
	eq("exp", &z, new(big.Int).Exp(a, b, p))

	// A residue by construction, then a itself (a residue or not).
	var sq field.Elem
	f.Mul(&sq, &x, &x)
	if !f.Sqrt(&z, &sq) {
		t.Fatalf("%s: sqrt refused the square of %x", name, a)
	}
	eq("sqrt(a²)", &z, canonicalRoot(mod(new(big.Int).Mul(a, a)), p))
	z = field.Elem{7}
	if want := canonicalRoot(a, p); want == nil {
		if f.Sqrt(&z, &x) {
			t.Fatalf("%s: sqrt accepted the non-residue %x", name, a)
		}
		if z != (field.Elem{7}) {
			t.Fatalf("%s: sqrt wrote its output on a non-residue", name)
		}
	} else {
		if !f.Sqrt(&z, &x) {
			t.Fatalf("%s: sqrt refused the residue %x", name, a)
		}
		eq("sqrt", &z, want)
	}

	// Batch inversion with zeros in the batch, first and in the middle.
	var ab field.Elem
	f.Mul(&ab, &x, &y)
	batch := []field.Elem{{}, x, y, {}, ab, x}
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
	for i, v := range f.ToBigs([]field.Elem{x, y, {}}) {
		if want := []*big.Int{a, b, new(big.Int)}[i]; v.Cmp(want) != 0 {
			t.Fatalf("%s: ToBigs[%d] = %x, want %x", name, i, v, want)
		}
	}
}

// FuzzFieldAgainstBig holds what this package adds to the shared field —
// exp, Sqrt on all three branches, InvBatch, Reduce and ToBigs — to
// math/big on primes of every width class. The operands arrive as raw
// 256-bit values: anything at or above p is not a field element and must
// be refused at the conversion boundary, after which the operands are
// reduced and every operation checked.
func FuzzFieldAgainstBig(f *testing.F) {
	fields := testFields(f)
	max := ^uint64(0)
	for which, tf := range fields {
		w := uint8(which)
		pm1 := field.Limbs(new(big.Int).Sub(tf.p, big.NewInt(1)))
		pl := field.Limbs(tf.p)
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
	})
}

// TestToBigs pins the slab carving, which follows the field's width:
// each integer gets exactly the words its width's limbs fill, capped so
// that growing one integer cannot run into its neighbour.
func TestToBigs(t *testing.T) {
	for _, tf := range testFields(t) {
		f := tf.f
		vals := []*big.Int{new(big.Int).Sub(tf.p, big.NewInt(1)), new(big.Int), big.NewInt(1), new(big.Int).Rsh(tf.p, 1)}
		xs := make([]field.Elem, len(vals))
		for i, v := range vals {
			xs[i], _ = f.FromBig(v)
		}
		out := f.ToBigs(xs)
		for i, v := range out {
			if v.Cmp(vals[i]) != 0 {
				t.Fatalf("%s: ToBigs[%d] = %x, want %x", tf.name, i, v, vals[i])
			}
			if got, want := cap(v.Bits()), f.Width()*limbWords; got != want {
				t.Fatalf("%s: ToBigs[%d] carved %d words, want %d for %d limbs", tf.name, i, got, want, f.Width())
			}
		}
		out[0].Lsh(out[0], 300)
		for i, v := range out[1:] {
			if v.Cmp(vals[i+1]) != 0 {
				t.Fatalf("%s: growing ToBigs[0] changed ToBigs[%d] to %x", tf.name, i+1, v)
			}
		}
	}
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
