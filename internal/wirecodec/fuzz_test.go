package wirecodec

import (
	"bytes"
	"math/big"
	"testing"
)

// Receive-boundary contract: arbitrary bytes from a peer must produce
// errors, never panics, and every accepted value must re-encode.

func fuzzSeeds(f *testing.F) {
	seeds := []any{
		nil,
		int(42),
		"seed",
		[]byte{1, 2, 3},
		big.NewInt(-77),
		new(big.Int).Lsh(big.NewInt(5), 500),
		[]*big.Int{big.NewInt(1), big.NewInt(2)},
	}
	for _, v := range seeds {
		b, err := Marshal(v)
		if err != nil {
			f.Fatalf("seed %#v: %v", v, err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{'G', 'W', Version, 0, 3, 0, 0, 0, 0})
	f.Add([]byte{'G', 'W', Version + 1, 0, 6, 0, 0, 0, 8})
	f.Add(legacyGobFrame(f, "version-1 fallback"))
}

// reencode holds every accepted value to a round trip: whatever a
// decoder returns has a codec of its own.
func reencode(t *testing.T, v any) {
	t.Helper()
	enc, err := Marshal(v)
	if err != nil {
		t.Fatalf("accepted value %T does not re-encode: %v", v, err)
	}
	if _, err := Unmarshal(enc); err != nil {
		t.Fatalf("re-encoded value failed to decode: %v", err)
	}
}

func FuzzConsumeValue(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, err := ConsumeValue(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		reencode(t, v)
	})
}

func FuzzReadValue(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := ReadValue(bytes.NewReader(data))
		if err != nil {
			return
		}
		reencode(t, v)
	})
}

func FuzzReaderPrimitives(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		_ = r.U8()
		_ = r.U16()
		_ = r.U32()
		_ = r.I64()
		_ = r.Bool()
		_ = r.Bytes()
		_ = r.String()
		_ = r.BigInt()
		_ = r.BigInts()
		_ = r.Element()
		_ = r.Err()
	})
}
