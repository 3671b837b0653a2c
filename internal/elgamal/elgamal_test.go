package elgamal

import (
	"math/big"
	"testing"
	"testing/quick"

	"groupranking/internal/fixedbig"
	"groupranking/internal/group"
)

func testScheme(t *testing.T) (*Scheme, *fixedbig.DRBG) {
	t.Helper()
	g, err := group.GenerateDLGroup(128, fixedbig.NewDRBG("elgamal-group"))
	if err != nil {
		t.Fatalf("GenerateDLGroup: %v", err)
	}
	return NewScheme(g), fixedbig.NewDRBG("elgamal-rng")
}

// isZero is the zero test of one ciphertext.
func isZero(s *Scheme, x *big.Int, ct Ciphertext) bool {
	return s.ZeroSet(x, []Ciphertext{ct})[0]
}

// decryptSmall brute-forces g^m for |m| ≤ bound; the protocol itself
// only ever tests m = 0.
func decryptSmall(s *Scheme, x *big.Int, ct Ciphertext, bound int64) (int64, bool) {
	g := s.Group()
	gm := s.Decrypt(x, ct)
	acc := g.Identity()
	for m := int64(0); m <= bound; m++ {
		if g.Equal(acc, gm) {
			return m, true
		}
		acc = g.Op(acc, g.Generator())
	}
	acc = g.Inv(g.Generator())
	for m := int64(-1); m >= -bound; m-- {
		if g.Equal(acc, gm) {
			return m, true
		}
		acc = g.Op(acc, g.Inv(g.Generator()))
	}
	return 0, false
}

func TestStandardEncryptDecrypt(t *testing.T) {
	s, rng := testScheme(t)
	kp, err := s.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		k, err := s.Group().RandomScalar(rng)
		if err != nil {
			t.Fatal(err)
		}
		m := group.ExpGen(s.Group(), k)
		ct, err := s.Encrypt(kp.Y, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Group().Equal(s.Decrypt(kp.X, ct), m) {
			t.Fatal("decrypt mismatch")
		}
	}
}

func TestExpEncryptIsZero(t *testing.T) {
	s, rng := testScheme(t)
	kp, err := s.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := s.EncryptExp(kp.Y, big.NewInt(0), rng)
	if err != nil {
		t.Fatal(err)
	}
	if !isZero(s, kp.X, zero) {
		t.Error("E(0) did not decrypt to zero")
	}
	one, err := s.EncryptExp(kp.Y, big.NewInt(1), rng)
	if err != nil {
		t.Fatal(err)
	}
	if isZero(s, kp.X, one) {
		t.Error("E(1) decrypted to zero")
	}
}

func TestAdditiveHomomorphism(t *testing.T) {
	s, rng := testScheme(t)
	kp, err := s.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b int16) bool {
		ca, err1 := s.EncryptExp(kp.Y, big.NewInt(int64(a)), rng)
		cb, err2 := s.EncryptExp(kp.Y, big.NewInt(int64(b)), rng)
		if err1 != nil || err2 != nil {
			return false
		}
		sum := s.Add(ca, cb)
		want := group.ExpGen(s.Group(), big.NewInt(int64(a)+int64(b)))
		return s.Group().Equal(s.Decrypt(kp.X, sum), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSubNegScalarMul(t *testing.T) {
	s, rng := testScheme(t)
	kp, err := s.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	enc := func(v int64) Ciphertext {
		ct, err := s.EncryptExp(kp.Y, big.NewInt(v), rng)
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	check := func(name string, ct Ciphertext, want int64) {
		t.Helper()
		got := s.Decrypt(kp.X, ct)
		if !s.Group().Equal(got, group.ExpGen(s.Group(), big.NewInt(want))) {
			t.Errorf("%s: plaintext is not %d", name, want)
		}
	}
	check("sub", s.Sub(enc(9), enc(4)), 5)
	check("neg", s.Neg(enc(7)), -7)
	check("scalarmul", s.ScalarMul(enc(6), big.NewInt(7)), 42)
	check("addplain", s.AddPlain(enc(3), big.NewInt(11)), 14)
	check("xor0-0", s.Sub(s.Add(enc(0), enc(0)), s.ScalarMul(enc(0), big.NewInt(0))), 0)
}

func TestXORGadget(t *testing.T) {
	// γ = a + b − 2ab where a is a known bit and b is encrypted: the exact
	// gadget step 7 of Fig. 1 computes.
	s, rng := testScheme(t)
	kp, err := s.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []int64{0, 1} {
		for _, b := range []int64{0, 1} {
			eb, err := s.EncryptExp(kp.Y, big.NewInt(b), rng)
			if err != nil {
				t.Fatal(err)
			}
			// E(γ) = E(a) ⊕-gadget: a + b − 2ab = a + (1−2a)·b.
			coeff := big.NewInt(1 - 2*a)
			eGamma := s.AddPlain(s.ScalarMul(eb, coeff), big.NewInt(a))
			want := a ^ b
			if got := isZero(s, kp.X, eGamma); got != (want == 0) {
				t.Errorf("xor(%d,%d): zero-test mismatch", a, b)
			}
		}
	}
}

func TestJointKeyLayeredDecryption(t *testing.T) {
	s, rng := testScheme(t)
	const n = 5
	keys := make([]*KeyPair, n)
	shares := make([]group.Element, n)
	for i := range keys {
		kp, err := s.GenerateKey(rng)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = kp
		shares[i] = kp.Y
	}
	joint := s.JointPublicKey(shares)
	ct, err := s.EncryptExp(joint, big.NewInt(0), rng)
	if err != nil {
		t.Fatal(err)
	}
	nz, err := s.EncryptExp(joint, big.NewInt(3), rng)
	if err != nil {
		t.Fatal(err)
	}
	// Strip layers one by one in arbitrary order.
	for _, i := range []int{2, 0, 4, 1} {
		ct = s.PartialDecrypt(keys[i].X, ct)
		nz = s.PartialDecrypt(keys[i].X, nz)
	}
	// The final holder decrypts with her own share.
	if !isZero(s, keys[3].X, ct) {
		t.Error("joint-key zero ciphertext did not decrypt to zero")
	}
	if isZero(s, keys[3].X, nz) {
		t.Error("joint-key non-zero ciphertext decrypted to zero")
	}
}

func TestJointKeyEqualsSumKey(t *testing.T) {
	s, rng := testScheme(t)
	k1, _ := s.GenerateKey(rng)
	k2, _ := s.GenerateKey(rng)
	joint := s.JointPublicKey([]group.Element{k1.Y, k2.Y})
	xSum := new(big.Int).Add(k1.X, k2.X)
	ct, err := s.EncryptExp(joint, big.NewInt(5), rng)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := decryptSmall(s, xSum, ct, 10)
	if !ok || got != 5 {
		t.Errorf("joint decryption with summed key: got %d ok=%v, want 5", got, ok)
	}
}

func TestReRandomizePreservesPlaintextChangesCiphertext(t *testing.T) {
	s, rng := testScheme(t)
	kp, _ := s.GenerateKey(rng)
	ct, err := s.EncryptExp(kp.Y, big.NewInt(7), rng)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := s.ReRandomize(kp.Y, ct, rng)
	if err != nil {
		t.Fatal(err)
	}
	if s.Group().Equal(rr.C, ct.C) && s.Group().Equal(rr.C1, ct.C1) {
		t.Error("re-randomisation left the ciphertext unchanged")
	}
	got, ok := decryptSmall(s, kp.X, rr, 10)
	if !ok || got != 7 {
		t.Errorf("re-randomised plaintext: got %d ok=%v, want 7", got, ok)
	}
}

func TestExponentBlindFixesZeroRandomisesNonZero(t *testing.T) {
	s, rng := testScheme(t)
	kp, _ := s.GenerateKey(rng)
	zero, err := s.EncryptExp(kp.Y, big.NewInt(0), rng)
	if err != nil {
		t.Fatal(err)
	}
	bz, err := s.ExponentBlind(zero, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !isZero(s, kp.X, bz) {
		t.Error("blinding broke the zero plaintext")
	}
	nz, err := s.EncryptExp(kp.Y, big.NewInt(3), rng)
	if err != nil {
		t.Fatal(err)
	}
	bn, err := s.ExponentBlind(nz, rng)
	if err != nil {
		t.Fatal(err)
	}
	if isZero(s, kp.X, bn) {
		t.Error("blinding zeroed a non-zero plaintext")
	}
	// The blinded plaintext should no longer be 3 (overwhelming probability).
	if got, ok := decryptSmall(s, kp.X, bn, 50); ok && got == 3 {
		t.Error("blinding left the plaintext exponent recognisable")
	}
}

func TestEncryptionsOfSamePlaintextDiffer(t *testing.T) {
	// IND-CPA structural smoke test: fresh encryptions of the same message
	// must never repeat.
	s, rng := testScheme(t)
	kp, _ := s.GenerateKey(rng)
	a, err := s.EncryptExp(kp.Y, big.NewInt(1), rng)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.EncryptExp(kp.Y, big.NewInt(1), rng)
	if err != nil {
		t.Fatal(err)
	}
	if s.Group().Equal(a.C, b.C) || s.Group().Equal(a.C1, b.C1) {
		t.Error("two encryptions of the same plaintext share components")
	}
}

func TestDecryptSmallNegative(t *testing.T) {
	s, rng := testScheme(t)
	kp, _ := s.GenerateKey(rng)
	ct, err := s.EncryptExp(kp.Y, big.NewInt(-4), rng)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := decryptSmall(s, kp.X, ct, 10)
	if !ok || got != -4 {
		t.Errorf("got %d ok=%v, want -4", got, ok)
	}
	if _, ok := decryptSmall(s, kp.X, ct, 2); ok {
		t.Error("bound 2 should not reach -4")
	}
}

func TestEncodeLength(t *testing.T) {
	s, rng := testScheme(t)
	kp, _ := s.GenerateKey(rng)
	ct, err := s.EncryptExp(kp.Y, big.NewInt(9), rng)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Encode(ct)); got != s.EncodedLen() {
		t.Errorf("encoded length %d, want %d", got, s.EncodedLen())
	}
}

func TestSchemeOverEllipticCurve(t *testing.T) {
	// The whole stack must work identically over an EC group.
	s := NewScheme(group.Secp160r1())
	rng := fixedbig.NewDRBG("elgamal-ec")
	kp, err := s.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := s.EncryptExp(kp.Y, big.NewInt(0), rng)
	if err != nil {
		t.Fatal(err)
	}
	if !isZero(s, kp.X, ct) {
		t.Error("EC zero ciphertext did not decrypt to zero")
	}
	sum := s.Add(ct, ct)
	if !isZero(s, kp.X, sum) {
		t.Error("EC homomorphic sum of zeros is not zero")
	}
	nz, err := s.EncryptExp(kp.Y, big.NewInt(2), rng)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := decryptSmall(s, kp.X, nz, 5); !ok || got != 2 {
		t.Errorf("EC DecryptSmall: got %d ok=%v, want 2", got, ok)
	}
}

func TestStandardElGamalOverEC(t *testing.T) {
	s := NewScheme(group.Secp160r1())
	rng := fixedbig.NewDRBG("std-ec")
	kp, err := s.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	k, err := s.Group().RandomScalar(rng)
	if err != nil {
		t.Fatal(err)
	}
	m := group.ExpGen(s.Group(), k)
	ct, err := s.Encrypt(kp.Y, m, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Group().Equal(s.Decrypt(kp.X, ct), m) {
		t.Error("EC standard decryption mismatch")
	}
}

func TestEncodeIncludesBothComponents(t *testing.T) {
	s, rng := testScheme(t)
	kp, err := s.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.EncryptExp(kp.Y, big.NewInt(1), rng)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.EncryptExp(kp.Y, big.NewInt(1), rng)
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := s.Encode(a), s.Encode(b)
	if len(ea) != len(eb) {
		t.Fatal("encodings of equal-size ciphertexts differ in length")
	}
	same := true
	for i := range ea {
		if ea[i] != eb[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("distinct ciphertexts encoded identically")
	}
}

func TestJointPublicKeyEmptyAndSingle(t *testing.T) {
	s, rng := testScheme(t)
	if !s.Group().IsIdentity(s.JointPublicKey(nil)) {
		t.Error("empty joint key should be the identity")
	}
	kp, err := s.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	single := s.JointPublicKey([]group.Element{kp.Y})
	if !s.Group().Equal(single, kp.Y) {
		t.Error("single-share joint key should equal the share")
	}
}

func TestDecryptSmallZeroBound(t *testing.T) {
	s, rng := testScheme(t)
	kp, err := s.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := s.EncryptExp(kp.Y, big.NewInt(0), rng)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := decryptSmall(s, kp.X, ct, 0)
	if !ok || got != 0 {
		t.Errorf("bound 0 must still find m=0: got %d ok=%v", got, ok)
	}
}

// hopBatch is a chunk of sixteen exponent ciphertexts under a fresh key,
// with the blinding scalars of one chain hop.
func hopBatch(tb testing.TB, g group.Group) (*Scheme, *KeyPair, []Ciphertext, []*big.Int) {
	tb.Helper()
	s := NewScheme(g)
	rng := fixedbig.NewDRBG("hop-batch-" + g.Name())
	key, err := s.GenerateKey(rng)
	if err != nil {
		tb.Fatal(err)
	}
	cts := make([]Ciphertext, 16)
	rs := make([]*big.Int, len(cts))
	for i := range cts {
		if cts[i], err = s.EncryptExp(key.Y, big.NewInt(int64(i%3)), rng); err != nil {
			tb.Fatal(err)
		}
		if rs[i], err = g.RandomScalar(rng); err != nil {
			tb.Fatal(err)
		}
	}
	return s, key, cts, rs
}

// composedHop is StripBlind's definition: strip, then blind, one
// ciphertext at a time.
func composedHop(s *Scheme, x *big.Int, cts []Ciphertext, rs []*big.Int) []Ciphertext {
	out := make([]Ciphertext, len(cts))
	for i, ct := range cts {
		out[i] = s.ExponentBlindR(s.PartialDecrypt(x, ct), rs[i])
	}
	return out
}

func TestStripBlindMatchesComposition(t *testing.T) {
	for _, g := range []group.Group{group.Secp160r1(), group.Secp256r1(), group.ToyDL256()} {
		s, key, cts, rs := hopBatch(t, g)
		got, want := s.StripBlind(key.X, cts, rs), composedHop(s, key.X, cts, rs)
		for i := range want {
			if !g.Equal(got[i].C, want[i].C) || !g.Equal(got[i].C1, want[i].C1) {
				t.Errorf("%s: ciphertext %d differs from ExponentBlindR(PartialDecrypt(·))", g.Name(), i)
			}
		}
		if len(s.StripBlind(key.X, nil, nil)) != 0 {
			t.Errorf("%s: an empty batch must stay empty", g.Name())
		}
	}
}

// TestStripBlindAllocs: the fused hop's per-call scratch (tables,
// recodings) must not cost more allocations than the composition's
// per-operation results did.
func TestStripBlindAllocs(t *testing.T) {
	for _, g := range []group.Group{group.Secp160r1(), group.Secp256r1()} {
		s, key, cts, rs := hopBatch(t, g)
		fused := testing.AllocsPerRun(5, func() { s.StripBlind(key.X, cts, rs) })
		composed := testing.AllocsPerRun(5, func() { composedHop(s, key.X, cts, rs) })
		if fused > composed {
			t.Errorf("%s: a fused chunk makes %.0f allocations, the composition %.0f", g.Name(), fused, composed)
		}
	}
}

// BenchmarkStripBlind sets one chain hop over sixteen ciphertexts
// against the strip-then-blind composition it replaces.
func BenchmarkStripBlind(b *testing.B) {
	for _, g := range []group.Group{group.Secp160r1(), group.Secp256r1()} {
		s, key, cts, rs := hopBatch(b, g)
		b.Run(g.Name()+"/fused-x16", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.StripBlind(key.X, cts, rs)
			}
		})
		b.Run(g.Name()+"/composed-x16", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				composedHop(s, key.X, cts, rs)
			}
		})
	}
}

// BenchmarkCompareCircuit sets one peer's comparison circuit at the
// benchmark's l = 27 against the composition it replaces, on a scheme
// holding the joint key's table as the protocol's does.
func BenchmarkCompareCircuit(b *testing.B) {
	const l = 27
	for _, g := range []group.Group{group.Secp160r1(), group.Secp256r1()} {
		rng := fixedbig.NewDRBG("bench-circuit-" + g.Name())
		key, err := NewScheme(g).GenerateKey(rng)
		if err != nil {
			b.Fatal(err)
		}
		s := NewScheme(g).WithPrecomp(key.Y)
		cts, bits, rs := make([]Ciphertext, l), make([]uint8, l), make([]*big.Int, l)
		for t := range cts {
			bits[t] = uint8(t * 5 % 7 % 2)
			if cts[t], err = s.EncryptExp(key.Y, big.NewInt(int64(t%2)), rng); err != nil {
				b.Fatal(err)
			}
			if rs[t], err = g.RandomScalar(rng); err != nil {
				b.Fatal(err)
			}
		}
		z, err := g.RandomScalar(rng)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(g.Name()+"/fused-l27", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.CompareCircuit(key.Y, cts, bits, z, rs)
			}
		})
		b.Run(g.Name()+"/composed-l27", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.composeCircuit(key.Y, cts, bits, z, rs)
			}
		})
	}
}

// BenchmarkZeroSet sets the final decrypt's zero test over sixteen
// ciphertexts against g.IsIdentity(Decrypt(·)) one at a time.
func BenchmarkZeroSet(b *testing.B) {
	for _, g := range []group.Group{group.Secp160r1(), group.Secp256r1()} {
		s, key, cts, _ := hopBatch(b, g)
		b.Run(g.Name()+"/fused-x16", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.ZeroSet(key.X, cts)
			}
		})
		b.Run(g.Name()+"/composed-x16", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, ct := range cts {
					g.IsIdentity(s.Decrypt(key.X, ct))
				}
			}
		})
	}
}
