package fixedbig

import (
	"bytes"
	"fmt"
	"math/big"
	"testing"
	"testing/quick"
)

func TestBitsRoundTrip(t *testing.T) {
	cases := []struct {
		name  string
		value int64
		width int
	}{
		{"zero", 0, 8},
		{"one", 1, 1},
		{"byte", 0xA5, 8},
		{"exact width", 0xFF, 8},
		{"wide", 123456789, 32},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := big.NewInt(tc.value)
			bits, err := Bits(x, tc.width)
			if err != nil {
				t.Fatalf("Bits(%d, %d): %v", tc.value, tc.width, err)
			}
			if len(bits) != tc.width {
				t.Fatalf("got %d bits, want %d", len(bits), tc.width)
			}
			if got := fromBits(bits); got.Cmp(x) != 0 {
				t.Fatalf("round trip: got %s, want %s", got, x)
			}
		})
	}
}

func TestBitsErrors(t *testing.T) {
	if _, err := Bits(big.NewInt(-1), 8); err == nil {
		t.Error("expected error for negative value")
	}
	if _, err := Bits(big.NewInt(256), 8); err == nil {
		t.Error("expected error for overflow value")
	}
}

func TestBitsLittleEndianOrder(t *testing.T) {
	bits, err := Bits(big.NewInt(0b1101), 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint8{1, 0, 1, 1}
	for i := range want {
		if bits[i] != want[i] {
			t.Fatalf("bit %d: got %d, want %d", i, bits[i], want[i])
		}
	}
}

func TestToUnsignedOrderPreserving(t *testing.T) {
	const width = 16
	prev := new(big.Int)
	first := true
	for _, v := range []int64{-32768, -1000, -1, 0, 1, 999, 32767} {
		u, err := ToUnsigned(big.NewInt(v), width)
		if err != nil {
			t.Fatalf("ToUnsigned(%d): %v", v, err)
		}
		if !first && u.Cmp(prev) <= 0 {
			t.Fatalf("order not preserved at %d", v)
		}
		prev.Set(u)
		first = false
		s, err := toSigned(u, width)
		if err != nil {
			t.Fatalf("toSigned: %v", err)
		}
		if s.Int64() != v {
			t.Fatalf("round trip: got %d, want %d", s.Int64(), v)
		}
	}
}

func TestToUnsignedRange(t *testing.T) {
	if _, err := ToUnsigned(big.NewInt(1<<15), 16); err == nil {
		t.Error("expected error above range")
	}
	if _, err := ToUnsigned(big.NewInt(-(1<<15)-1), 16); err == nil {
		t.Error("expected error below range")
	}
}

func TestToUnsignedQuick(t *testing.T) {
	f := func(a, b int32) bool {
		const width = 33
		ua, err1 := ToUnsigned(big.NewInt(int64(a)), width)
		ub, err2 := ToUnsigned(big.NewInt(int64(b)), width)
		if err1 != nil || err2 != nil {
			return false
		}
		return (a < b) == (ua.Cmp(ub) < 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRandIntBounds(t *testing.T) {
	rng := NewDRBG("bounds")
	max := big.NewInt(97)
	for i := 0; i < 200; i++ {
		v, err := RandInt(rng, max)
		if err != nil {
			t.Fatal(err)
		}
		if v.Sign() < 0 || v.Cmp(max) >= 0 {
			t.Fatalf("value %s out of [0, %s)", v, max)
		}
	}
}

func TestRandNonZero(t *testing.T) {
	rng := NewDRBG("nonzero")
	max := big.NewInt(5)
	for i := 0; i < 100; i++ {
		v, err := RandNonZero(rng, max)
		if err != nil {
			t.Fatal(err)
		}
		if v.Sign() <= 0 || v.Cmp(max) >= 0 {
			t.Fatalf("value %s out of [1, %s)", v, max)
		}
	}
}

func TestRandErrors(t *testing.T) {
	rng := NewDRBG("err")
	if _, err := RandInt(rng, big.NewInt(0)); err == nil {
		t.Error("expected error for max = 0")
	}
	if _, err := RandNonZero(rng, big.NewInt(1)); err == nil {
		t.Error("expected error for max = 1")
	}
}

func TestCentredMod(t *testing.T) {
	p := big.NewInt(101)
	cases := []struct{ in, want int64 }{
		{0, 0}, {1, 1}, {50, 50}, {51, -50}, {100, -1}, {-1, -1}, {-50, -50}, {-51, 50},
	}
	for _, tc := range cases {
		if got := CentredMod(big.NewInt(tc.in), p); got.Int64() != tc.want {
			t.Errorf("CentredMod(%d, 101) = %d, want %d", tc.in, got.Int64(), tc.want)
		}
	}
}

func TestDRBGDeterministic(t *testing.T) {
	a, b := NewDRBG("seed"), NewDRBG("seed")
	bufA, bufB := make([]byte, 1000), make([]byte, 1000)
	if _, err := a.Read(bufA); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Read(bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA, bufB) {
		t.Error("same seed produced different streams")
	}
	c := NewDRBG("other")
	bufC := make([]byte, 1000)
	if _, err := c.Read(bufC); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(bufA, bufC) {
		t.Error("different seeds produced identical streams")
	}
}

func TestDRBGPartialReads(t *testing.T) {
	a := NewDRBG("partial")
	b := NewDRBG("partial")
	one := make([]byte, 100)
	if _, err := a.Read(one); err != nil {
		t.Fatal(err)
	}
	var pieces []byte
	for len(pieces) < 100 {
		chunk := make([]byte, 7)
		if len(pieces)+7 > 100 {
			chunk = make([]byte, 100-len(pieces))
		}
		if _, err := b.Read(chunk); err != nil {
			t.Fatal(err)
		}
		pieces = append(pieces, chunk...)
	}
	if !bytes.Equal(one, pieces) {
		t.Error("chunked reads disagree with a single read")
	}
}

func TestPrimeDeterministicAndValid(t *testing.T) {
	a, err := Prime(NewDRBG("prime-seed"), 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Prime(NewDRBG("prime-seed"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cmp(b) != 0 {
		t.Fatalf("same seed produced %s and %s; parties could disagree on the field", a, b)
	}
	if a.BitLen() != 64 {
		t.Errorf("bit length %d, want exactly 64", a.BitLen())
	}
	if !a.ProbablyPrime(32) {
		t.Errorf("%s is not prime", a)
	}
	c, err := Prime(NewDRBG("other-seed"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cmp(c) == 0 {
		t.Error("different seeds produced the same prime")
	}
	if _, err := Prime(NewDRBG("x"), 1); err == nil {
		t.Error("1-bit prime accepted")
	}
}

// fromBits reassembles a little-endian bit slice into an integer: the
// reference Bits round-trips against.
func fromBits(bits []uint8) *big.Int {
	x := new(big.Int)
	for i, b := range bits {
		if b != 0 {
			x.SetBit(x, i, 1)
		}
	}
	return x
}

// toSigned inverts ToUnsigned: the reference ToUnsigned round-trips
// against.
func toSigned(u *big.Int, width int) (*big.Int, error) {
	if u.Sign() < 0 || u.BitLen() > width {
		return nil, fmt.Errorf("unsigned value %s out of range for width %d", u, width)
	}
	half := new(big.Int).Lsh(big.NewInt(1), uint(width-1))
	return new(big.Int).Sub(u, half), nil
}
