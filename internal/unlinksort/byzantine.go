package unlinksort

// Covert-adversary test harness: seeded protocol-level deviations the
// Byzantine chaos suite injects into one party, and the blame
// certificates honest parties issue when a check catches a cheater.
// The deviations are the crypto-level counterparts of FaultNet's
// wire-level behaviours (equivocate, replay): a bad key-knowledge
// proof, a chain hop stripping with the wrong key, and a hop tampering
// with its own τ set in transit — each chosen because the protocol
// carries a verifiable check for it, so every schedule must end in a
// certificate the offline verifier (internal/blame) confirms.

import (
	"fmt"
	"math/big"

	"groupranking/internal/elgamal"
	"groupranking/internal/group"
	"groupranking/internal/transport"
	"groupranking/internal/wirecodec"
	"groupranking/internal/zkp"
)

// ByzBehavior enumerates the supported protocol-level deviations.
type ByzBehavior int

const (
	// ByzNone: honest behaviour.
	ByzNone ByzBehavior = iota
	// ByzBadKeyProof perturbs the Schnorr response so the multi-verifier
	// key-knowledge proof fails at every honest verifier.
	ByzBadKeyProof
	// ByzWrongDecryption strips chain key layers (and builds the
	// Chaum–Pedersen transcripts) with a key other than the registered
	// share — the silent rank-corruption attack ProveDecryption exists
	// to catch. Detected by the hop's successor, so the chaos suite
	// schedules it on parties before the last hop and only in
	// ProveDecryption mode.
	ByzWrongDecryption
	// ByzTamperOwnSet modifies the party's own τ set while passing it
	// through the chain (hops must forward their own set untouched).
	// Detected by the successor's pass-through check, with the same
	// scheduling constraints as ByzWrongDecryption.
	ByzTamperOwnSet
)

// String implements fmt.Stringer.
func (b ByzBehavior) String() string {
	switch b {
	case ByzNone:
		return "none"
	case ByzBadKeyProof:
		return "bad-key-proof"
	case ByzWrongDecryption:
		return "wrong-partial-decryption"
	case ByzTamperOwnSet:
		return "tamper-own-set"
	default:
		return fmt.Sprintf("ByzBehavior(%d)", int(b))
	}
}

// Byz selects one party's deviation. It exists for the chaos suite and
// robustness tests; deployments never set it.
type Byz struct {
	Party    int
	Behavior ByzBehavior
}

// byzFor returns the deviation configured for party me, if any.
func (c Config) byzFor(me int) ByzBehavior {
	if c.Byz != nil && c.Byz.Party == me {
		return c.Byz.Behavior
	}
	return ByzNone
}

// malformedAbort is the typed abort for a payload that fails the
// receiver's shape check: it names the actual sender (never the
// observer — the runner's fallback attribution would otherwise blame
// the honest party that noticed) and carries a CheckMalformed
// certificate recording the observed and expected shapes.
func malformedAbort(accused, reporter, round int, phase, got, want string) error {
	return transport.Abort(accused, round, phase,
		fmt.Errorf("unlinksort: party %d sent %s, want %s", accused, got, want)).
		WithCert(&transport.BlameCert{
			Version: transport.BlameCertVersion, Accused: accused, Reporter: reporter,
			Round: round, Phase: phase, Check: transport.CheckMalformed,
			Detail: fmt.Sprintf("party %d sent %s where %s was expected", accused, got, want),
			Items: []transport.BlameItem{
				{Name: "type-got", Data: []byte(got)},
				{Name: "type-want", Data: []byte(want)},
			},
		})
}

// certInvalidElement records an element that fails membership in g (an
// invalid-curve attack attempt) as the bytes it arrived as: the
// canonical encoding of the group that made it, which off the wire is
// the group its payload named. The offline verifier re-runs g's decode
// and validation on them and confirms they are rejected. Encoding it
// with g instead would misread, or panic on, another group's point.
func certInvalidElement(g group.Group, accused, reporter, round int, phase string, e group.Element) *transport.BlameCert {
	var data []byte
	if of := group.Of(e); of != nil {
		data = of.AppendElement(nil, e)
	}
	return &transport.BlameCert{
		Version: transport.BlameCertVersion, Accused: accused, Reporter: reporter,
		Round: round, Phase: phase, Check: transport.CheckInvalidElement,
		Detail: fmt.Sprintf("party %d sent a group element that fails membership validation", accused),
		Group:  g.Name(),
		Items:  []transport.BlameItem{{Name: "element", Data: data}},
	}
}

// certKeyProof records a failed multi-verifier Schnorr proof: the full
// statement (key share y, commitment h, every verifier's challenge,
// response z), so internal/blame can re-run zkp.Verify offline.
func certKeyProof(g group.Group, accused, reporter int, y, h group.Element, challenges []*big.Int, z *big.Int) *transport.BlameCert {
	return &transport.BlameCert{
		Version: transport.BlameCertVersion, Accused: accused, Reporter: reporter,
		Round: roundProofResponse, Phase: PhaseKeyProof, Check: transport.CheckKeyProof,
		Detail: fmt.Sprintf("party %d's key-knowledge proof does not verify", accused),
		Group:  g.Name(),
		Items: []transport.BlameItem{
			{Name: "y", Data: g.AppendElement(nil, y)},
			{Name: "h", Data: g.AppendElement(nil, h)},
			{Name: "challenges", Data: scalarEvidence(g, challenges...)},
			{Name: "z", Data: scalarEvidence(g, z)},
		},
	}
}

// certPartialDecryption records a failed Chaum–Pedersen strip proof:
// the registered key share, the ciphertext before and after the strip,
// and the transcript, so the verifier can re-run
// zkp.VerifyPartialDecryption offline.
func certPartialDecryption(g group.Group, accused, reporter, round int, in, st elgamal.Ciphertext, t zkp.EqualityTranscript, y group.Element) *transport.BlameCert {
	return &transport.BlameCert{
		Version: transport.BlameCertVersion, Accused: accused, Reporter: reporter,
		Round: round, Phase: PhaseChain, Check: transport.CheckPartialDecryption,
		Detail: fmt.Sprintf("party %d's partial-decryption proof does not verify against its registered key share", accused),
		Group:  g.Name(),
		Items: []transport.BlameItem{
			{Name: "y", Data: g.AppendElement(nil, y)},
			{Name: "c1", Data: g.AppendElement(nil, in.C1)},
			{Name: "orig-c", Data: g.AppendElement(nil, in.C)},
			{Name: "stripped-c", Data: g.AppendElement(nil, st.C)},
			{Name: "commit-g", Data: g.AppendElement(nil, t.CommitG)},
			{Name: "commit-h", Data: g.AppendElement(nil, t.CommitH)},
			{Name: "challenge", Data: scalarEvidence(g, t.Challenge)},
			{Name: "response", Data: scalarEvidence(g, t.Response)},
		},
	}
}

// certStrippedRandomness records a strip step that altered a
// ciphertext's randomness component (C1 must pass through a strip
// unchanged; the proofs only bind C).
func certStrippedRandomness(g group.Group, accused, reporter, round int, in, st elgamal.Ciphertext) *transport.BlameCert {
	return &transport.BlameCert{
		Version: transport.BlameCertVersion, Accused: accused, Reporter: reporter,
		Round: round, Phase: PhaseChain, Check: transport.CheckStrippedRandomness,
		Detail: fmt.Sprintf("party %d altered a ciphertext's randomness component during its strip step", accused),
		Group:  g.Name(),
		Items: []transport.BlameItem{
			{Name: "orig-c1", Data: g.AppendElement(nil, in.C1)},
			{Name: "stripped-c1", Data: g.AppendElement(nil, st.C1)},
		},
	}
}

// certSetAnchor records a ciphertext set that does not hash to its
// binding commitment (owner anchor, previous hop's broadcast
// commitment, or the final-set commitment). The set rides along as the
// concatenation of its fixed-length ciphertext encodings — exactly the
// byte stream hashSet digests — so the verifier just re-hashes.
func certSetAnchor(accused, reporter, round int, detail string, anchor, setBytes []byte) *transport.BlameCert {
	return &transport.BlameCert{
		Version: transport.BlameCertVersion, Accused: accused, Reporter: reporter,
		Round: round, Phase: PhaseChain, Check: transport.CheckSetAnchor,
		Detail: detail,
		Items: []transport.BlameItem{
			{Name: "anchor", Data: anchor},
			{Name: "set", Data: setBytes},
		},
	}
}

// certOwnSetTampered records a hop that forwarded its own τ set
// modified: the set it received (bound to the previous commitment) and
// the set it passed on, which must be byte-identical.
func certOwnSetTampered(accused, reporter, round int, inputSet, passedSet []byte) *transport.BlameCert {
	return &transport.BlameCert{
		Version: transport.BlameCertVersion, Accused: accused, Reporter: reporter,
		Round: round, Phase: PhaseChain, Check: transport.CheckOwnSetTampered,
		Detail: fmt.Sprintf("party %d modified its own τ set in transit (hops must pass their own set through untouched)", accused),
		Items: []transport.BlameItem{
			{Name: "input-set", Data: inputSet},
			{Name: "passed-set", Data: passedSet},
		},
	}
}

// scalarEvidence records scalars of g as certificate evidence in their
// wire form, the data of a run at the order's width. One without that
// form (only an in-process peer could hand one over) leaves the item
// empty, which the verifier reports as undecodable evidence.
func scalarEvidence(g group.Group, xs ...*big.Int) []byte {
	u, err := wirecodec.UintsOf(wirecodec.WidthOf(g.Order()), xs)
	if err != nil {
		return nil
	}
	return u.Data
}

// encodeSetBytes concatenates a set's fixed-length ciphertext
// encodings — the exact byte stream hashSet digests — as certificate
// evidence.
func encodeSetBytes(scheme *elgamal.Scheme, set []elgamal.Ciphertext) []byte {
	out := make([]byte, 0, len(set)*scheme.EncodedLen())
	for _, ct := range set {
		out = scheme.AppendEncode(out, ct)
	}
	return out
}
