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
// — as DRBG draws like core's, plus two fixed primes: Goldilocks and
// 2^255 − 19. The shared field's arithmetic and square root are tested
// in internal/field; these tests cover what this package adds.
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
	return out
}

func bigFromLimbs(l [4]uint64) *big.Int {
	var buf [32]byte
	for i, w := range l {
		binary.BigEndian.PutUint64(buf[24-8*i:], w)
	}
	return new(big.Int).SetBytes(buf[:])
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
	z := f.Reduce(new(big.Int).Add(a, new(big.Int).Mul(p, b)))
	eq("reduce(a+p·b)", &z, a)
	z = f.Reduce(new(big.Int).Neg(a))
	eq("reduce(−a)", &z, mod(new(big.Int).Neg(a)))

	// The wire conversion — FillBytes at the prime's width, FromBytes
	// back, as ssmpc's integer runs carry shares — agrees with math/big
	// and is its own inverse.
	width := (p.BitLen() + 7) / 8
	for i, v := range []field.Elem{x, y, {}} {
		want := []*big.Int{a, b, new(big.Int)}[i]
		var buf [32]byte
		f.FillBytes(buf[32-width:], &v)
		if !bytes.Equal(buf[32-width:], want.FillBytes(make([]byte, width))) {
			t.Fatalf("%s: FillBytes(%x) = %x", name, want, buf[32-width:])
		}
		if back, ok := f.FromBytes(&buf); !ok || back != v {
			t.Fatalf("%s: FromBytes(FillBytes(%x)) = %v, %v", name, want, back, ok)
		}
	}
}

// FuzzFieldAgainstBig holds what this package adds to the shared field —
// InvBatch, Reduce — and the wire conversion its engine uses to
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
