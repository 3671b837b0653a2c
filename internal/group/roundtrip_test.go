package group

import (
	"bytes"
	"math/big"
	"testing"
)

// allNamedGroups returns every registered group plus the math/big
// secp160r1 reference curve.
func allNamedGroups(t *testing.T) []Group {
	t.Helper()
	names := []string{"modp-1024", "modp-2048", "modp-3072", "toy-dl-256",
		"secp160r1", "secp224r1", "secp256r1"}
	groups := make([]Group, 0, len(names)+1)
	for _, name := range names {
		g, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, g)
	}
	return append(groups, oracleOf(Secp160r1()))
}

// TestEncodeDecodeRoundTrip is the satellite property test for the
// fixed-width encoding contract: for EVERY group — the identity
// included — Encode emits exactly ElementLen bytes and Decode accepts
// them back to an equal element. Before the EC identity fix, the
// identity of the curve groups encoded as a single 0x00 byte, breaking
// the fixed-width invariant that the chain commitment hash and the
// elgamal plaintext padding both rely on.
func TestEncodeDecodeRoundTripAllGroups(t *testing.T) {
	for _, g := range allNamedGroups(t) {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			q := g.Order()
			scalars := []*big.Int{
				big.NewInt(0), // identity
				big.NewInt(1), // generator
				big.NewInt(2),
				big.NewInt(12345678901),
				new(big.Int).Sub(q, big.NewInt(1)),
				new(big.Int).Rsh(q, 1),
			}
			for _, k := range scalars {
				e := ExpGen(g, k)
				enc := g.AppendElement(nil, e)
				if len(enc) != g.ElementLen() {
					t.Fatalf("g^%v encodes to %d bytes, ElementLen is %d", k, len(enc), g.ElementLen())
				}
				dec, err := g.Decode(enc)
				if err != nil {
					t.Fatalf("decoding g^%v's own encoding: %v", k, err)
				}
				if !g.Equal(dec, e) {
					t.Fatalf("g^%v does not round-trip through Encode/Decode", k)
				}
			}
		})
	}
}

// TestECIdentityEncodingRegression pins the identity-encoding bugfix:
// the point at infinity must encode as ElementLen zero bytes (so every
// element has one fixed-width canonical form), and the legacy one-byte
// {0x00} form must be rejected rather than silently widened.
func TestECIdentityEncodingRegression(t *testing.T) {
	for _, gg := range []Group{Secp160r1(), oracleOf(Secp160r1()), _secp224r1(), Secp256r1()} {
		enc := gg.AppendElement(nil, gg.Identity())
		if len(enc) != gg.ElementLen() {
			t.Errorf("%s: identity encodes to %d bytes, want ElementLen %d",
				gg.Name(), len(enc), gg.ElementLen())
		}
		if !bytes.Equal(enc, make([]byte, gg.ElementLen())) {
			t.Errorf("%s: identity encoding is not all-zero", gg.Name())
		}
		dec, err := gg.Decode(enc)
		if err != nil {
			t.Errorf("%s: fixed-width identity rejected: %v", gg.Name(), err)
		} else if !gg.IsIdentity(dec) {
			t.Errorf("%s: fixed-width identity decodes to a non-identity", gg.Name())
		}
		if _, err := gg.Decode([]byte{0x00}); err == nil {
			t.Errorf("%s: legacy one-byte identity encoding accepted", gg.Name())
		}
	}
}

// TestValidateRejectsOffCurvePoint covers the invalid-curve satellite
// at the group layer: a structurally well-formed point that is not on
// the curve must fail Validate.
func TestValidateRejectsOffCurvePoint(t *testing.T) {
	for _, g := range []Group{Secp160r1(), _secp224r1()} {
		evil, err := UnsafeElementFromCoords(g, big.NewInt(1), big.NewInt(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(g, evil); err == nil {
			t.Errorf("%s: off-curve point (1,1) passed Validate", g.Name())
		}
		if err := Validate(g, g.Generator()); err != nil {
			t.Errorf("%s: generator failed Validate: %v", g.Name(), err)
		}
		if err := Validate(g, g.Identity()); err != nil {
			t.Errorf("%s: identity failed Validate: %v", g.Name(), err)
		}
	}
}
