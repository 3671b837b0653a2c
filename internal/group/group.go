// Package group provides the prime-order cyclic groups underlying the
// framework's cryptography: quadratic-residue subgroups of safe primes
// ("DL" groups, Section IV-B of the paper) and short-Weierstrass elliptic
// curves ("ECC" groups). Both families are implemented from scratch: the DL
// groups over math/big, all curve arithmetic, point decompression and
// validation included, on one fixed-width limb kernel (kernel.go on
// internal/field). Every element records the group that made it, and its
// one encoding is that group's fixed-width canonical form (Encode,
// AppendElement, Decode), which is also how it crosses the wire.
//
// The decisional Diffie-Hellman problem is believed hard in every group
// constructed here, which is the assumption the framework's security proofs
// rest on. The implementations favour clarity over side-channel resistance:
// neither the math/big nor the limb arithmetic is constant time. That is adequate for the
// honest-but-curious simulations in this repository and is called out in
// the README.
package group

import (
	"fmt"
	"io"
	"math/big"

	"groupranking/internal/fixedbig"
)

// Element is an opaque element of a Group. Elements are immutable; all
// operations allocate fresh results. An Element records the Group that
// produced it (see Of) and must only be used with that group — mixing
// elements across groups is a programming error and panics with a
// descriptive message.
type Element interface {
	groupElement()
}

// Of returns the group that produced e, or nil for nil and for an
// element no group of this package made.
func Of(e Element) Group {
	switch v := e.(type) {
	case ecPoint:
		if v.g != nil {
			return v.g
		}
	case dlElement:
		if v.d != nil {
			return v.d
		}
	}
	return nil
}

// ElementPrototypes returns one zero value per concrete Element
// implementation, so the wirecodec registry can key its encoder table
// by dynamic type without this package importing it.
func ElementPrototypes() []Element {
	return []Element{dlElement{}, ecPoint{}}
}

// Group is a cyclic group of prime order in which DDH is assumed hard.
type Group interface {
	// Name identifies the concrete group (e.g. "modp-1024", "secp160r1").
	Name() string
	// Order returns the (prime) group order q. Callers must not mutate it.
	Order() *big.Int
	// Generator returns the fixed generator g.
	Generator() Element
	// Identity returns the neutral element.
	Identity() Element
	// Op returns a∘b.
	Op(a, b Element) Element
	// Inv returns a⁻¹.
	Inv(a Element) Element
	// Exp returns a^k for any integer k (negative exponents allowed).
	Exp(a Element, k *big.Int) Element
	// Equal reports whether two elements are the same group element.
	Equal(a, b Element) bool
	// IsIdentity reports whether a is the neutral element.
	IsIdentity(a Element) bool
	// AppendElement appends the canonical encoding of a to dst and
	// returns the extended slice, exactly ElementLen bytes longer.
	// Every element, the identity included, has one fixed-width
	// canonical encoding; AppendElement(nil, a) is it on its own. A
	// caller that reuses dst across elements amortises every buffer to
	// zero allocations.
	AppendElement(dst []byte, a Element) []byte
	// Decode parses an encoded element, verifying group membership.
	Decode(data []byte) (Element, error)
	// ElementLen is the encoded length in bytes of every element; it is
	// the ciphertext-size unit used by the communication cost model.
	ElementLen() int
	// RandomScalar returns a uniform scalar in [1, q).
	RandomScalar(rng io.Reader) (*big.Int, error)
	// SecurityBits is the symmetric-equivalent security level following
	// the NIST FIPS 140-2 implementation guidance cited by the paper
	// (e.g. modp-1024 and secp160r1 are both 80-bit).
	SecurityBits() int
}

// ExpGen returns g^k in the given group. It is a convenience wrapper used
// pervasively by the ElGamal and ZKP layers.
func ExpGen(g Group, k *big.Int) Element {
	return g.Exp(g.Generator(), k)
}

// randomScalar implements the shared RandomScalar logic.
func randomScalar(rng io.Reader, q *big.Int) (*big.Int, error) {
	k, err := fixedbig.RandNonZero(rng, q)
	if err != nil {
		return nil, fmt.Errorf("group: sampling scalar: %w", err)
	}
	return k, nil
}

// mismatchPanic reports use of a foreign element type with a group.
func mismatchPanic(group string, e Element) string {
	return fmt.Sprintf("group: element of type %T used with %s group", e, group)
}
