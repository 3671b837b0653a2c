package zkp

import (
	"fmt"
	"io"
	"math/big"

	"groupranking/internal/group"
	"groupranking/internal/obsv"
)

// Chaum–Pedersen proof of discrete-logarithm equality: the prover shows
// log_g(y) = log_h(z) without revealing the exponent. Instantiated with
// g = the group generator, y = a party's public key share, h = a
// ciphertext's randomness component c₁ and z = c₁^x, it proves that a
// partial decryption was computed with the registered key share — the
// building block for hardening the decrypt-and-shuffle chain beyond the
// honest-but-curious model (full malicious security would additionally
// need shuffle proofs, which the paper leaves out of scope).
//
// The protocol is the standard sigma protocol: commit (g^r, h^r),
// challenge c, response s = r + c·x; verify g^s = a·y^c and
// h^s = b·z^c. It is honest-verifier zero-knowledge, matching the
// paper's HBC setting.

// EqualityTranscript records one Chaum–Pedersen interaction.
type EqualityTranscript struct {
	CommitG   group.Element // a = g^r
	CommitH   group.Element // b = h^r
	Challenge *big.Int
	Response  *big.Int // s = r + c·x mod q
}

// EqualityStatement is the public statement (g is the group generator).
type EqualityStatement struct {
	Y group.Element // y = g^x
	H group.Element // second base
	Z group.Element // z = h^x
}

// ProveEquality produces an accepting transcript for the statement
// using secret x and an honest verifier's uniform challenge.
func ProveEquality(g group.Group, x *big.Int, st EqualityStatement, rng io.Reader) (EqualityTranscript, error) {
	r, err := g.RandomScalar(rng)
	if err != nil {
		return EqualityTranscript{}, fmt.Errorf("zkp: equality commit: %w", err)
	}
	c, err := NewChallenge(g, rng)
	if err != nil {
		return EqualityTranscript{}, err
	}
	return proveEqualityR(g, x, st, r, c), nil
}

// proveEqualityR is ProveEquality with caller-supplied commit randomness
// r and challenge c (drawn in that order by ProveEquality). The parallel
// chain kernels pre-draw both serially and fan the transcript arithmetic
// out across workers.
func proveEqualityR(g group.Group, x *big.Int, st EqualityStatement, r, c *big.Int) EqualityTranscript {
	obsv.PartyOf(g).Add(obsv.OpProofMade, 1)
	q := g.Order()
	s := new(big.Int).Mul(c, x)
	s.Add(s, r)
	s.Mod(s, q)
	return EqualityTranscript{
		CommitG:   group.ExpGen(g, r),
		CommitH:   g.Exp(st.H, r),
		Challenge: c,
		Response:  s,
	}
}

// VerifyEquality checks a transcript against the statement.
func VerifyEquality(g group.Group, st EqualityStatement, t EqualityTranscript) bool {
	obsv.PartyOf(g).Add(obsv.OpProofChecked, 1)
	// g^s·y^−c = a and h^s·z^−c = b, one MultiExp batch.
	lhs := doubleExps(g, t.Response, new(big.Int).Neg(t.Challenge), [][2]group.Element{{g.Generator(), st.Y}, {st.H, st.Z}})
	return g.Equal(lhs[0], t.CommitG) && g.Equal(lhs[1], t.CommitH)
}

// doubleExps returns a^s·b^c for every pair (a, b): the verification
// equations' double exponentiations, each one shared doubling chain on
// the kernel curves. It charges per pair the two exponentiations and one
// multiplication the composition g.Op(g.Exp(a, s), g.Exp(b, c)) would
// (MultiExp runs on the raw group).
func doubleExps(g group.Group, s, c *big.Int, pairs [][2]group.Element) []group.Element {
	party := obsv.PartyOf(g)
	party.Add(obsv.OpGroupExp, int64(2*len(pairs)))
	party.Add(obsv.OpGroupOp, int64(len(pairs)))
	bases := make([]group.Element, 0, 2*len(pairs))
	products := make([][]group.Term, len(pairs))
	for i, p := range pairs {
		bases = append(bases, p[0], p[1])
		products[i] = []group.Term{{Base: 2 * i, Exp: s}, {Base: 2*i + 1, Exp: c}}
	}
	return group.MultiExp(g, bases, products)
}

// ProvePartialDecryptionR proves that stripped = c / c1^x was derived
// from ciphertext component c1 with the key share behind public key y,
// with caller-supplied commit randomness r and challenge c: the
// statement is log_g(y) = log_{c1}(c1^x), where c1^x is recomputed by
// the verifier as original/stripped.
func ProvePartialDecryptionR(g group.Group, x *big.Int, y, c1, originalC, strippedC group.Element, r, c *big.Int) EqualityTranscript {
	z := g.Op(originalC, g.Inv(strippedC)) // c1^x
	return proveEqualityR(g, x, EqualityStatement{Y: y, H: c1, Z: z}, r, c)
}

// VerifyPartialDecryption checks a partial-decryption proof.
func VerifyPartialDecryption(g group.Group, y, c1, originalC, strippedC group.Element, t EqualityTranscript) bool {
	z := g.Op(originalC, g.Inv(strippedC))
	return VerifyEquality(g, EqualityStatement{Y: y, H: c1, Z: z}, t)
}
