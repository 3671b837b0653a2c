package elgamal

import (
	"bytes"
	"math/big"
	"testing"

	"groupranking/internal/fixedbig"
	"groupranking/internal/group"
	"groupranking/internal/wirecodec"
)

func wireSchemes(t *testing.T) []*Scheme {
	t.Helper()
	return []*Scheme{NewScheme(group.ToyDL256()), NewScheme(group.Secp160r1())}
}

func sampleCiphertext(t *testing.T, s *Scheme) Ciphertext {
	t.Helper()
	rng := fixedbig.NewDRBG("elgamal-wire-test-" + s.Group().Name())
	kp, err := s.GenerateKey(rng)
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	ct, err := s.EncryptExp(kp.Y, big.NewInt(3), rng)
	if err != nil {
		t.Fatalf("EncryptExp: %v", err)
	}
	return ct
}

// TestCiphertextBinaryRoundtrip: a ciphertext frame is the 9-byte
// header, the group byte and the two elements at ElementLen each,
// whatever the coordinates, the identity included; it decodes to the
// same ciphertext under the same group.
func TestCiphertextBinaryRoundtrip(t *testing.T) {
	for _, s := range wireSchemes(t) {
		g := s.Group()
		for _, ct := range []Ciphertext{
			sampleCiphertext(t, s),
			{C: g.Identity(), C1: g.Identity()},
		} {
			b, err := wirecodec.Marshal(ct)
			if err != nil {
				t.Fatalf("%s: Marshal: %v", g.Name(), err)
			}
			if want := 9 + 1 + 2*g.ElementLen(); len(b) != want || b[9] != group.WireID(g) {
				t.Fatalf("%s: %d-byte frame, group byte %d; want %d bytes naming %d", g.Name(), len(b), b[9], want, group.WireID(g))
			}
			if !bytes.Equal(b[10:], s.Encode(ct)) {
				t.Fatalf("%s: the frame's elements are not the ciphertext's canonical encoding", g.Name())
			}
			fv, err := wirecodec.Unmarshal(b)
			if err != nil {
				t.Fatalf("%s: Unmarshal: %v", g.Name(), err)
			}
			got := fv.(Ciphertext)
			if !g.Equal(got.C, ct.C) || !g.Equal(got.C1, ct.C1) || group.Of(got.C) != group.Raw(g) {
				t.Fatalf("%s: ciphertext changed across roundtrip", g.Name())
			}
		}
	}
}

// TestCiphertextUnmarshalRejectsGarbage: truncation, trailing bytes, a
// group byte naming no group or an unknown one, an unknown point tag,
// an abscissa with no point over it, and elements of two groups in one
// ciphertext are all refused.
func TestCiphertextUnmarshalRejectsGarbage(t *testing.T) {
	s := NewScheme(group.Secp160r1())
	good, err := wirecodec.Marshal(sampleCiphertext(t, s))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(good); i++ {
		if _, err := wirecodec.Unmarshal(good[:i]); err == nil {
			t.Fatalf("accepted %d-byte prefix", i)
		}
	}
	grown := append(append([]byte(nil), good...), 0xEE)
	grown[8]++ // the payload length, so the codec sees the extra byte
	mutate := func(at int, v byte) []byte {
		b := append([]byte(nil), good...)
		b[at] = v
		return b
	}
	// x = 1 has no point over it on secp160r1: 1 − 3 + b is a non-residue.
	offCurve := append([]byte(nil), good...)
	copy(offCurve[10:31], append([]byte{0x02}, make([]byte, 20)...))
	offCurve[30] = 1
	for name, b := range map[string][]byte{
		"trailing byte":    grown,
		"no group":         mutate(9, 0),
		"unknown group":    mutate(9, 0x7F),
		"unknown tag":      mutate(10, 0x7F),
		"off-curve x":      offCurve,
		"secp256r1 header": mutate(9, group.WireID(group.Secp256r1())),
	} {
		if _, err := wirecodec.Unmarshal(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	p256 := NewScheme(group.Secp256r1())
	mixed := Ciphertext{C: sampleCiphertext(t, s).C, C1: sampleCiphertext(t, p256).C1}
	if _, err := wirecodec.Marshal(mixed); err == nil {
		t.Error("a ciphertext of two groups encoded")
	}
}

// TestAppendEncodeZeroAllocs pins the hot-path contract: encoding a
// ciphertext into a reused buffer allocates nothing. The old Encode
// built two intermediate slices per ciphertext and re-copied both
// through a defensive pad; per-bit encryption batches serialise
// O(l·n²) ciphertexts per run, so the copies were pure overhead.
func TestAppendEncodeZeroAllocs(t *testing.T) {
	for _, s := range wireSchemes(t) {
		ct := sampleCiphertext(t, s)
		buf := make([]byte, 0, s.EncodedLen())
		allocs := testing.AllocsPerRun(200, func() {
			buf = s.AppendEncode(buf[:0], ct)
		})
		if allocs != 0 {
			t.Errorf("%s: AppendEncode allocates %.1f times per ciphertext, want 0",
				s.Group().Name(), allocs)
		}
		if len(buf) != s.EncodedLen() {
			t.Errorf("%s: AppendEncode wrote %d bytes, want %d",
				s.Group().Name(), len(buf), s.EncodedLen())
		}
		if !bytes.Equal(buf, s.Encode(ct)) {
			t.Errorf("%s: AppendEncode disagrees with Encode", s.Group().Name())
		}
	}
}

// FuzzCiphertextUnmarshal: any bytes decode to a ciphertext or an
// error, never a panic, and an accepted frame re-encodes to exactly the
// bytes it was decoded from.
func FuzzCiphertextUnmarshal(f *testing.F) {
	for _, s := range []*Scheme{NewScheme(group.ToyDL256()), NewScheme(group.Secp160r1())} {
		rng := fixedbig.NewDRBG("elgamal-fuzz")
		kp, _ := s.GenerateKey(rng)
		ct, _ := s.EncryptExp(kp.Y, big.NewInt(1), rng)
		if seed, err := wirecodec.Marshal(ct); err == nil {
			f.Add(seed)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{'G', 'W', wirecodec.Version, 0, byte(wirecodec.IDRangeCrypto), 0, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := wirecodec.Unmarshal(data)
		if err != nil {
			return
		}
		ct, ok := v.(Ciphertext)
		if !ok {
			return // another registered type's frame
		}
		b, err := wirecodec.Marshal(ct)
		if err != nil {
			t.Fatalf("accepted ciphertext failed to re-encode: %v", err)
		}
		if !bytes.Equal(b, data) {
			t.Fatalf("accepted frame %x re-encodes to %x", data, b)
		}
	})
}
