package dotprod

import (
	"math/big"
	"strings"
	"testing"

	"groupranking/internal/fixedbig"
	"groupranking/internal/wirecodec"
)

// These tests pin the receive-boundary validation: over a real network
// both flows are attacker-controlled, so every structural and range
// violation must be rejected with a descriptive error before any of the
// message's contents are used.

func validateFixture(t *testing.T) (Params, *Bob, *BobMessage) {
	t.Helper()
	p, ok := new(big.Int).SetString("1000003", 10)
	if !ok {
		t.Fatal("bad prime literal")
	}
	params := DefaultSRange(p)
	w := []*big.Int{big.NewInt(3), big.NewInt(5), big.NewInt(7)}
	bob, msg, err := NewBob(params, w, fixedbig.NewDRBG("dotprod-validate"))
	if err != nil {
		t.Fatal(err)
	}
	return params, bob, msg
}

func TestBobMessageValidate(t *testing.T) {
	params, _, good := validateFixture(t)
	if err := good.Validate(params); err != nil {
		t.Fatalf("honest flow rejected: %v", err)
	}
	corrupt := func(name string, mutate func(m *BobMessage), want string) {
		t.Run(name, func(t *testing.T) {
			_, _, msg := validateFixture(t)
			mutate(msg)
			err := msg.Validate(params)
			if err == nil {
				t.Fatal("corrupted flow accepted")
			}
			if want != "" && !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not mention %q", err, want)
			}
		})
	}
	// The cases keep the names they had when entries were *big.Ints;
	// each corrupts the run form the nearest way. A run has no nil entry
	// and no sign: a nil element is an entry cut short, and −1 is its
	// two's complement at the field's width, all ones.
	w := params.FieldBytes()
	set := func(u wirecodec.Uints, i int, v *big.Int) { v.FillBytes(u.At(i)) }
	allOnes := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(8*w)), big.NewInt(1))
	corrupt("nil message", func(m *BobMessage) { *m = BobMessage{} }, "outside")
	corrupt("s too small", func(m *BobMessage) { m.QX = m.QX[:SMin-1] }, "outside")
	corrupt("s too large", func(m *BobMessage) {
		for len(m.QX) <= SMax {
			m.QX = append(m.QX, m.QX[0])
		}
	}, "outside")
	corrupt("ragged matrix", func(m *BobMessage) { m.QX[1].Data = m.QX[1].Data[:w] }, "run 1 ")
	corrupt("cprime length", func(m *BobMessage) { m.CPrime.Data = m.CPrime.Data[:w] }, "integers of width")
	corrupt("g length", func(m *BobMessage) { m.G.Data = append(m.G.Data, make([]byte, w)...) }, "integers of width")
	corrupt("nil element", func(m *BobMessage) { m.QX[0].Data = m.QX[0].Data[:len(m.QX[0].Data)-1] }, "run 0 ")
	corrupt("negative element", func(m *BobMessage) { set(m.CPrime, 0, allOnes) }, "not below the modulus")
	corrupt("unreduced element", func(m *BobMessage) { set(m.G, 0, params.P) }, "not below the modulus")
	corrupt("narrow entries", func(m *BobMessage) {
		m.CPrime = wirecodec.Uints{Width: w - 1, Data: make([]byte, (w-1)*m.CPrime.Len())}
	}, "width")
	corrupt("wide entries", func(m *BobMessage) {
		m.G = wirecodec.Uints{Width: w + 1, Data: make([]byte, (w+1)*m.G.Len())}
	}, "width")

	var missing *BobMessage
	if err := missing.Validate(params); err == nil {
		t.Error("nil pointer accepted")
	}
}

func TestAliceReplyValidate(t *testing.T) {
	params, bob, msg := validateFixture(t)
	v := []*big.Int{big.NewInt(2), big.NewInt(4), big.NewInt(6)}
	reply, err := AliceRespond(params, msg, v, big.NewInt(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := reply.Validate(params); err != nil {
		t.Fatalf("honest reply rejected: %v", err)
	}
	w := params.FieldBytes()
	run := func(width int, xs ...*big.Int) wirecodec.Uints {
		u, err := wirecodec.UintsOf(width, xs)
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	allOnes := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(8*w)), big.NewInt(1))
	bad := []*AliceReply{
		nil,
		{AH: run(w+1, big.NewInt(1), big.NewInt(1))},
		{AH: run(w, big.NewInt(1))},
		{AH: run(w, big.NewInt(1), big.NewInt(1), big.NewInt(1))},
		{AH: run(w, allOnes, big.NewInt(1))},
		{AH: run(w, new(big.Int).Set(params.P), big.NewInt(1))},
	}
	for i, r := range bad {
		if err := r.Validate(params); err == nil {
			t.Errorf("bad reply %d accepted", i)
		}
	}
	// Finish must reject an out-of-range reply instead of computing with
	// it — and must stay usable for the honest reply afterwards.
	if _, err := bob.Finish(&AliceReply{AH: run(w, new(big.Int).Set(params.P), big.NewInt(0))}); err == nil {
		t.Error("Finish accepted an unreduced reply")
	}
	if _, err := bob.Finish(reply); err != nil {
		t.Errorf("Finish rejected the honest reply after a bad one: %v", err)
	}
}
