package fixedbig

import (
	"math/big"
	"testing"
)

func FuzzBitsRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint(1))
	f.Add(uint64(0xA5), uint(8))
	f.Add(uint64(1)<<62, uint(63))
	f.Fuzz(func(t *testing.T, v uint64, width uint) {
		if width == 0 || width > 64 {
			return
		}
		x := new(big.Int).SetUint64(v)
		bits, err := Bits(x, int(width))
		if err != nil {
			// Legitimate rejection: v does not fit. Verify that claim.
			if x.BitLen() <= int(width) {
				t.Fatalf("Bits rejected fitting value %d/%d: %v", v, width, err)
			}
			return
		}
		if got := fromBits(bits); got.Cmp(x) != 0 {
			t.Fatalf("round trip %d/%d: got %s", v, width, got)
		}
	})
}

func FuzzToUnsignedRoundTrip(f *testing.F) {
	f.Add(int64(0), uint(8))
	f.Add(int64(-128), uint(8))
	f.Add(int64(127), uint(8))
	f.Fuzz(func(t *testing.T, v int64, width uint) {
		if width < 2 || width > 62 {
			return
		}
		x := big.NewInt(v)
		u, err := ToUnsigned(x, int(width))
		if err != nil {
			return // out of range, fine
		}
		s, err := toSigned(u, int(width))
		if err != nil {
			t.Fatalf("toSigned rejected ToUnsigned output: %v", err)
		}
		if s.Cmp(x) != 0 {
			t.Fatalf("round trip %d/%d: got %s", v, width, s)
		}
	})
}

func FuzzCentredMod(f *testing.F) {
	f.Add(int64(-50), uint64(101))
	f.Add(int64(50), uint64(101))
	f.Fuzz(func(t *testing.T, x int64, p uint64) {
		if p < 3 || p%2 == 0 {
			return
		}
		pb := new(big.Int).SetUint64(p)
		r := CentredMod(big.NewInt(x), pb)
		// Result must be congruent to x and within (−p/2, p/2].
		diff := new(big.Int).Sub(r, big.NewInt(x))
		if new(big.Int).Mod(diff, pb).Sign() != 0 {
			t.Fatalf("CentredMod(%d, %d) = %s not congruent", x, p, r)
		}
		half := new(big.Int).Rsh(pb, 1)
		negHalf := new(big.Int).Neg(half)
		if r.Cmp(negHalf) < 0 || r.Cmp(half) > 0 {
			t.Fatalf("CentredMod(%d, %d) = %s out of centred range", x, p, r)
		}
	})
}
