// Package elgamal implements the ElGamal cryptosystem over any
// group.Group, in both its standard form and the paper's "modified"
// exponent form E(m) = (g^m·y^r, g^r), which is additively homomorphic
// (Section IV-D). It also provides the distributed-key operations the
// unlinkable comparison phase relies on: joint public keys, layered
// partial decryption, ciphertext re-randomisation and exponent blinding
// (c, c') → (c^r, c'^r), which randomises a non-zero plaintext exponent
// while fixing zero.
package elgamal

import (
	"fmt"
	"io"
	"math/big"

	"groupranking/internal/group"
	"groupranking/internal/obsv"
)

// Ciphertext is an ElGamal ciphertext (C, C1) with C = M·y^r (or
// g^m·y^r in exponent form) and C1 = g^r.
type Ciphertext struct {
	C  group.Element
	C1 group.Element
}

// KeyPair holds one party's ElGamal key share.
type KeyPair struct {
	X *big.Int      // private key
	Y group.Element // public key g^x
}

// Scheme binds the cryptosystem to a concrete group.
type Scheme struct {
	g group.Group
	// pkTab is an optional fixed-base table for one distinguished public
	// key (the joint key y in the unlinkable sort, fixed for a whole
	// run). See WithPrecomp.
	pkTab *group.FixedBaseTable
}

// NewScheme returns an ElGamal scheme over g.
func NewScheme(g group.Group) *Scheme { return &Scheme{g: g} }

// Group exposes the underlying group.
func (s *Scheme) Group() group.Group { return s.g }

// WithPrecomp returns a scheme that evaluates pk^r through a fixed-base
// comb table whenever an encryption or re-randomisation uses exactly
// this public key. The protocol's joint key y masks every one of the
// O(l·n²) ciphertexts a run produces, so one table build (a few hundred
// group operations) amortises immediately. Other public keys fall back
// to the plain exponentiation path, and the observability census is
// unchanged: a table hit charges the same single OpGroupExp the Exp
// call it replaces would have.
func (s *Scheme) WithPrecomp(pk group.Element) *Scheme {
	return &Scheme{g: s.g, pkTab: group.NewFixedBaseTable(s.g, pk)}
}

// tableFor returns the precomputed table when it was built for pk, and
// nil otherwise.
func (s *Scheme) tableFor(pk group.Element) *group.FixedBaseTable {
	if s.pkTab != nil && s.g.Equal(s.pkTab.Base(), pk) {
		return s.pkTab
	}
	return nil
}

// expPK computes pk^r, through the precomputed table when it was built
// for this pk.
func (s *Scheme) expPK(pk group.Element, r *big.Int) group.Element {
	if tab := s.tableFor(pk); tab != nil {
		// The table evaluates on the raw group; charge the one
		// exponentiation the counting wrapper would have recorded.
		obsv.PartyOf(s.g).Add(obsv.OpGroupExp, 1)
		return tab.Exp(r)
	}
	return s.g.Exp(pk, r)
}

// GenerateKey samples a fresh key pair.
func (s *Scheme) GenerateKey(rng io.Reader) (*KeyPair, error) {
	x, err := s.g.RandomScalar(rng)
	if err != nil {
		return nil, fmt.Errorf("elgamal: generating key: %w", err)
	}
	return &KeyPair{X: x, Y: group.ExpGen(s.g, x)}, nil
}

// JointPublicKey combines the parties' public key shares into the joint
// key y = Π y_i whose private key x = Σ x_i is known to nobody.
func (s *Scheme) JointPublicKey(shares []group.Element) group.Element {
	y := s.g.Identity()
	for _, yi := range shares {
		y = s.g.Op(y, yi)
	}
	return y
}

// Encrypt is standard ElGamal encryption of a group element M.
func (s *Scheme) Encrypt(pk group.Element, m group.Element, rng io.Reader) (Ciphertext, error) {
	r, err := s.g.RandomScalar(rng)
	if err != nil {
		return Ciphertext{}, fmt.Errorf("elgamal: encrypting: %w", err)
	}
	return s.EncryptR(pk, m, r), nil
}

// EncryptR encrypts with caller-supplied randomness r. The parallel
// kernels pre-draw every scalar serially (preserving the deterministic
// DRBG draw order the test suite pins down) and then fan the pure
// arithmetic out across workers through this entry point.
func (s *Scheme) EncryptR(pk group.Element, m group.Element, r *big.Int) Ciphertext {
	obsv.PartyOf(s.g).Add(obsv.OpEncrypt, 1)
	return Ciphertext{
		C:  s.g.Op(m, s.expPK(pk, r)),
		C1: group.ExpGen(s.g, r),
	}
}

// Decrypt is standard ElGamal decryption: M = C / C1^x.
func (s *Scheme) Decrypt(x *big.Int, ct Ciphertext) group.Element {
	obsv.PartyOf(s.g).Add(obsv.OpDecrypt, 1)
	return s.g.Op(ct.C, s.g.Inv(s.g.Exp(ct.C1, x)))
}

// encodeExp maps an integer into the group's exponent encoding g^m. The
// values the protocol encodes hottest — bits and the +1 of the γ
// complement — short-circuit to the identity and the generator, which
// both removes an exponentiation from every bitwise encryption and
// makes the scheme's exponentiation count independent of the plaintext
// bit pattern (so the cost model can predict it exactly).
func (s *Scheme) encodeExp(m *big.Int) group.Element {
	switch {
	case m.Sign() == 0:
		return s.g.Identity()
	case m.Cmp(oneInt) == 0:
		return s.g.Generator()
	}
	return group.ExpGen(s.g, m)
}

var oneInt = big.NewInt(1)

// EncryptExp encrypts an integer in the exponent: E(m) = (g^m·y^r, g^r).
// Decryption recovers g^m only; the framework never needs m itself, only
// whether m = 0 (Section IV-D).
func (s *Scheme) EncryptExp(pk group.Element, m *big.Int, rng io.Reader) (Ciphertext, error) {
	return s.Encrypt(pk, s.encodeExp(m), rng)
}

// EncryptExpR is EncryptExp with caller-supplied randomness.
func (s *Scheme) EncryptExpR(pk group.Element, m, r *big.Int) Ciphertext {
	return s.EncryptR(pk, s.encodeExp(m), r)
}

// Add homomorphically adds the plaintext exponents of two ciphertexts.
func (s *Scheme) Add(a, b Ciphertext) Ciphertext {
	return Ciphertext{C: s.g.Op(a.C, b.C), C1: s.g.Op(a.C1, b.C1)}
}

// Neg negates the plaintext exponent.
func (s *Scheme) Neg(a Ciphertext) Ciphertext {
	return Ciphertext{C: s.g.Inv(a.C), C1: s.g.Inv(a.C1)}
}

// Sub homomorphically subtracts plaintext exponents.
func (s *Scheme) Sub(a, b Ciphertext) Ciphertext { return s.Add(a, s.Neg(b)) }

// ScalarMul multiplies the plaintext exponent by the integer k.
func (s *Scheme) ScalarMul(a Ciphertext, k *big.Int) Ciphertext {
	return Ciphertext{C: s.g.Exp(a.C, k), C1: s.g.Exp(a.C1, k)}
}

// AddPlain adds a public integer to the plaintext exponent without fresh
// randomness (the caller re-randomises separately when needed). Adding
// zero is the identity and costs nothing.
func (s *Scheme) AddPlain(a Ciphertext, m *big.Int) Ciphertext {
	if m.Sign() == 0 {
		return a
	}
	return Ciphertext{C: s.g.Op(a.C, s.encodeExp(m)), C1: a.C1}
}

// ReRandomize refreshes the randomness of a ciphertext under pk by adding
// an encryption of zero, making the result unlinkable to the input.
func (s *Scheme) ReRandomize(pk group.Element, a Ciphertext, rng io.Reader) (Ciphertext, error) {
	r, err := s.g.RandomScalar(rng)
	if err != nil {
		return Ciphertext{}, fmt.Errorf("elgamal: re-randomising: %w", err)
	}
	return s.ReRandomizeR(pk, a, r), nil
}

// ReRandomizeR is ReRandomize with caller-supplied randomness.
func (s *Scheme) ReRandomizeR(pk group.Element, a Ciphertext, r *big.Int) Ciphertext {
	return s.Add(a, s.EncryptExpR(pk, big.NewInt(0), r))
}

// ExponentBlind raises both components to a random non-zero power:
// (c, c') → (c^r, c'^r). For an exponent ciphertext of plaintext m this
// yields a ciphertext of r·m — identically zero stays zero, anything else
// becomes a uniformly random non-zero exponent. This is the randomisation
// used in step 8 of Fig. 1 to hide non-zero τ values.
func (s *Scheme) ExponentBlind(a Ciphertext, rng io.Reader) (Ciphertext, error) {
	r, err := s.g.RandomScalar(rng)
	if err != nil {
		return Ciphertext{}, fmt.Errorf("elgamal: blinding: %w", err)
	}
	return s.ExponentBlindR(a, r), nil
}

// ExponentBlindR is ExponentBlind with a caller-supplied blinding
// scalar. The two powers are one MultiExp batch (one inversion for both
// components); it charges the two exponentiations ScalarMul would.
func (s *Scheme) ExponentBlindR(a Ciphertext, r *big.Int) Ciphertext {
	obsv.PartyOf(s.g).Add(obsv.OpGroupExp, 2)
	out := group.MultiExp(s.g, []group.Element{a.C, a.C1}, [][]group.Term{{{Base: 0, Exp: r}}, {{Base: 1, Exp: r}}})
	return Ciphertext{C: out[0], C1: out[1]}
}

// PartialDecrypt strips one key layer: C → C / C1^x. After every holder
// of a key share has applied it, the remaining C equals g^m.
func (s *Scheme) PartialDecrypt(x *big.Int, a Ciphertext) Ciphertext {
	obsv.PartyOf(s.g).Add(obsv.OpDecrypt, 1)
	return Ciphertext{
		C:  s.g.Op(a.C, s.g.Inv(s.g.Exp(a.C1, x))),
		C1: a.C1,
	}
}

// StripBlind is one chain hop's arithmetic over a batch: out[i] equals
// ExponentBlindR(PartialDecrypt(x, cts[i]), rs[i]), element for element,
// computed as (C^r · C1^(−x·r mod q), C1^r) — (C·C1^−x)^r multiplied
// out, so the strip and the blind of C share one doubling chain, both
// powers of C1 share its table, and the batch shares its inversions
// (group.MultiExp). It charges per ciphertext what the composition
// would: one OpDecrypt, three OpGroupExp, one OpGroupOp and one
// OpGroupInv (the expPK precedent: the arithmetic runs on the raw
// group).
func (s *Scheme) StripBlind(x *big.Int, cts []Ciphertext, rs []*big.Int) []Ciphertext {
	m := len(cts)
	party := obsv.PartyOf(s.g)
	party.Add(obsv.OpDecrypt, int64(m))
	party.Add(obsv.OpGroupExp, int64(3*m))
	party.Add(obsv.OpGroupOp, int64(m))
	party.Add(obsv.OpGroupInv, int64(m))

	// Ciphertext i is bases 2i (C) and 2i+1 (C1), and products 2i
	// (C^r·C1^(−xr)) and 2i+1 (C1^r).
	q := s.g.Order()
	bases := make([]group.Element, 2*m)
	terms := make([]group.Term, 3*m)
	products := make([][]group.Term, 2*m)
	for i, ct := range cts {
		xr := new(big.Int).Mul(x, rs[i])
		xr.Neg(xr).Mod(xr, q)
		c, c1 := 2*i, 2*i+1
		bases[c], bases[c1] = ct.C, ct.C1
		t := terms[3*i : 3*i+3]
		t[0], t[1], t[2] = group.Term{Base: c, Exp: rs[i]}, group.Term{Base: c1, Exp: xr}, group.Term{Base: c1, Exp: rs[i]}
		products[c], products[c1] = t[:2], t[2:]
	}
	els := group.MultiExp(s.g, bases, products)
	out := make([]Ciphertext, m)
	for i := range out {
		out[i] = Ciphertext{C: els[2*i], C1: els[2*i+1]}
	}
	return out
}

// CompareCircuit is one peer's comparison circuit, step 7 of Fig. 1, with
// caller-supplied randomness. cts are the peer's bit ciphertexts E(β_i^t)
// under joint, least significant bit first, and bits the caller's own
// bits β_j^t; z is the suffix sums' zero-encryption scalar and rs[t] the
// re-randomiser of τ_t, or rs nil for none (unlinksort's
// unsafeNoReRandomize ablation). With weight w = l − t, out[t] is
//
//	τ_t = w·(1 − γ_t) + Σ_{v>t} γ_v + β_j^t,   γ_t = β_i^t ⊕ β_j^t,
//
// under fresh randomness z + r_t. On a kernel curve whose joint-key table
// the scheme holds (WithPrecomp) the vector is one group.CompareCircuit
// batch; elsewhere it is composed from Neg, AddPlain, ScalarMul, Add and
// ReRandomizeR. The elements are the same either way, since each has one
// canonical form. Both run on the raw group and charge what the
// composition's calls would: per peer 1 OpEncrypt, 2 OpGroupExp and
// 1 OpGroupOp; per bit 1 OpEncrypt, 4 OpGroupExp (+1 unless w = 1) and
// 8 OpGroupOp, +2 OpGroupOp and 2 OpGroupInv when β_j^t = 1; without
// re-randomisation each bit charges 1 OpEncrypt, 2 OpGroupExp and
// 3 OpGroupOp less.
func (s *Scheme) CompareCircuit(joint group.Element, cts []Ciphertext, bits []uint8, z *big.Int, rs []*big.Int) []Ciphertext {
	l, ones := int64(len(cts)), int64(0)
	for _, b := range bits {
		ones += int64(b)
	}
	enc, exps, ops := 1+l, 2+5*l-min(l, 1), 1+8*l+2*ones
	if rs == nil {
		enc, exps, ops = enc-l, exps-2*l, ops-3*l
	}
	party := obsv.PartyOf(s.g)
	party.Add(obsv.OpEncrypt, enc)
	party.Add(obsv.OpGroupExp, exps)
	party.Add(obsv.OpGroupOp, ops)
	party.Add(obsv.OpGroupInv, 2*ones)

	if out, ok := group.CompareCircuit(s.g, s.tableFor(joint), pairs(cts), bits, z, rs); ok {
		taus := make([]Ciphertext, len(out))
		for t, p := range out {
			taus[t] = Ciphertext{C: p[0], C1: p[1]}
		}
		return taus
	}
	return s.raw().composeCircuit(joint, cts, bits, z, rs)
}

// composeCircuit is CompareCircuit as a composition of the scheme's
// ciphertext operations: the evaluation on groups without the kernel.
func (s *Scheme) composeCircuit(joint group.Element, cts []Ciphertext, bits []uint8, z *big.Int, rs []*big.Int) []Ciphertext {
	taus := make([]Ciphertext, len(cts))
	suffix := s.EncryptExpR(joint, big.NewInt(0), z) // Σ_{v>t} γ_v, on a fresh E(0)
	for t := len(cts) - 1; t >= 0; t-- {
		// E(γ_t): β_i^t for my bit 0, 1 − β_i^t for my bit 1.
		gamma := cts[t]
		if bits[t] == 1 {
			gamma = s.AddPlain(s.Neg(gamma), big.NewInt(1))
		}
		weight := big.NewInt(int64(len(cts) - t))
		tau := s.Add(s.ScalarMul(gamma, new(big.Int).Neg(weight)), suffix)
		tau = s.AddPlain(s.AddPlain(tau, weight), big.NewInt(int64(bits[t])))
		if rs != nil {
			tau = s.ReRandomizeR(joint, tau, rs[t])
		}
		taus[t] = tau
		suffix = s.Add(suffix, gamma)
	}
	return taus
}

// ZeroSet reports for each ciphertext whether its exponent plaintext is
// zero under the private key x, i.e. whether C = C1^x: the last layer's
// strip and the zero test of step 9 of Fig. 1. On a kernel curve the
// batch is one group.ZeroSet, which compares C1^x with C projectively and
// inverts nothing; elsewhere each test is Decrypt's composition. Both run
// on the raw group and charge per ciphertext what Decrypt would:
// 1 OpDecrypt, 1 OpGroupExp, 1 OpGroupInv and 1 OpGroupOp.
func (s *Scheme) ZeroSet(x *big.Int, cts []Ciphertext) []bool {
	m := int64(len(cts))
	party := obsv.PartyOf(s.g)
	party.Add(obsv.OpDecrypt, m)
	party.Add(obsv.OpGroupExp, m)
	party.Add(obsv.OpGroupInv, m)
	party.Add(obsv.OpGroupOp, m)
	if out, ok := group.ZeroSet(s.g, x, pairs(cts)); ok {
		return out
	}
	raw := s.raw()
	out := make([]bool, len(cts))
	for i, ct := range cts {
		out[i] = raw.g.IsIdentity(raw.Decrypt(x, ct))
	}
	return out
}

// raw is the scheme on the raw group, whose operations count nothing.
func (s *Scheme) raw() *Scheme { return &Scheme{g: group.Raw(s.g), pkTab: s.pkTab} }

// pairs lays ciphertexts out as the (C, C1) pairs group's batches take.
func pairs(cts []Ciphertext) [][2]group.Element {
	out := make([][2]group.Element, len(cts))
	for i, ct := range cts {
		out[i] = [2]group.Element{ct.C, ct.C1}
	}
	return out
}

// EncodedLen returns the serialised ciphertext size in bytes; it is the
// unit the communication cost model charges per ciphertext.
func (s *Scheme) EncodedLen() int { return 2 * s.g.ElementLen() }

// Encode serialises a ciphertext as C ‖ C1, each component exactly
// ElementLen bytes (the identity included — every Group guarantees a
// fixed-width canonical encoding).
func (s *Scheme) Encode(a Ciphertext) []byte {
	return s.AppendEncode(make([]byte, 0, s.EncodedLen()), a)
}

// AppendEncode appends the canonical C ‖ C1 serialisation to dst and
// returns the extended slice. It is the hot-path form of Encode: the
// old implementation copied each component twice (Encode, then a
// defensive re-pad); this writes both straight into the caller's
// buffer, and a reused buffer amortises to zero allocations per
// ciphertext — pinned by TestAppendEncodeZeroAllocs.
func (s *Scheme) AppendEncode(dst []byte, a Ciphertext) []byte {
	dst = s.g.AppendElement(dst, a.C)
	return s.g.AppendElement(dst, a.C1)
}
