// Package zkp implements the Schnorr honest-verifier zero-knowledge proof
// of discrete-logarithm knowledge, in the single-verifier form and the
// paper's n-verifier extension (Section IV-E): every verifier contributes
// a challenge share c_j, the prover answers z = r + x·Σc_j, and each
// verifier checks g^z = h·y^(Σc_j).
//
// The package also exposes the special-soundness knowledge extractor used
// in the paper's security proofs; the test suite exercises it, and the
// gain-hiding simulator argument relies on its existence.
package zkp

import (
	"fmt"
	"io"
	"math/big"

	"groupranking/internal/group"
	"groupranking/internal/obsv"
)

// Transcript records one complete proof interaction.
type Transcript struct {
	Commitment group.Element // h = g^r
	Challenges []*big.Int    // one share per verifier
	Response   *big.Int      // z = r + x·Σc_j mod q
}

// Prover holds the secret and per-proof randomness of one Schnorr proof.
// A Prover is single use: Commit once, Respond once.
type Prover struct {
	g         group.Group
	x         *big.Int
	r         *big.Int
	committed bool
	responded bool
}

// NewProver prepares a proof of knowledge of x = log_g(y).
func NewProver(g group.Group, x *big.Int) *Prover {
	return &Prover{g: g, x: x}
}

// Commit samples the proof randomness and returns h = g^r.
func (p *Prover) Commit(rng io.Reader) (group.Element, error) {
	if p.committed {
		return nil, fmt.Errorf("zkp: prover already committed")
	}
	r, err := p.g.RandomScalar(rng)
	if err != nil {
		return nil, fmt.Errorf("zkp: committing: %w", err)
	}
	p.r = r
	p.committed = true
	return group.ExpGen(p.g, r), nil
}

// Respond answers the verifiers' challenge shares with
// z = r + x·Σc_j mod q.
func (p *Prover) Respond(challenges []*big.Int) (*big.Int, error) {
	if !p.committed {
		return nil, fmt.Errorf("zkp: respond before commit")
	}
	if p.responded {
		return nil, fmt.Errorf("zkp: prover already responded")
	}
	p.responded = true
	obsv.PartyOf(p.g).Add(obsv.OpProofMade, 1)
	q := p.g.Order()
	z := new(big.Int).Mul(p.x, sumMod(challenges, q))
	z.Add(z, p.r)
	return z.Mod(z, q), nil
}

// NewChallenge samples one verifier's challenge share.
func NewChallenge(g group.Group, rng io.Reader) (*big.Int, error) {
	c, err := g.RandomScalar(rng)
	if err != nil {
		return nil, fmt.Errorf("zkp: sampling challenge: %w", err)
	}
	return c, nil
}

// Verify checks g^z = h·y^(Σc_j), as g^z·y^(−Σc_j) = h, for public key
// y, commitment h, challenge shares and response z.
func Verify(g group.Group, y, h group.Element, challenges []*big.Int, z *big.Int) bool {
	obsv.PartyOf(g).Add(obsv.OpProofChecked, 1)
	c := sumMod(challenges, g.Order())
	lhs := doubleExps(g, z, c.Neg(c), [][2]group.Element{{g.Generator(), y}})
	return g.Equal(lhs[0], h)
}

// VerifyTranscript checks a complete recorded interaction.
func VerifyTranscript(g group.Group, y group.Element, t Transcript) bool {
	return Verify(g, y, t.Commitment, t.Challenges, t.Response)
}

// Prove runs a complete honest-verifier interaction with nVerifiers
// verifiers in one call and returns the accepted transcript. It is the
// convenience entry point used by the framework when all parties are
// simulated in-process.
func Prove(g group.Group, x *big.Int, nVerifiers int, rng io.Reader) (Transcript, error) {
	if nVerifiers < 1 {
		return Transcript{}, fmt.Errorf("zkp: need at least one verifier, got %d", nVerifiers)
	}
	p := NewProver(g, x)
	h, err := p.Commit(rng)
	if err != nil {
		return Transcript{}, err
	}
	challenges := make([]*big.Int, nVerifiers)
	for j := range challenges {
		if challenges[j], err = NewChallenge(g, rng); err != nil {
			return Transcript{}, err
		}
	}
	z, err := p.Respond(challenges)
	if err != nil {
		return Transcript{}, err
	}
	return Transcript{Commitment: h, Challenges: challenges, Response: z}, nil
}

// Extract is the special-soundness knowledge extractor: given two
// accepting transcripts that share a commitment but differ in total
// challenge, it recovers x = (z − z')/(Σc − Σc') mod q.
func Extract(g group.Group, t1, t2 Transcript) (*big.Int, error) {
	if !g.Equal(t1.Commitment, t2.Commitment) {
		return nil, fmt.Errorf("zkp: transcripts do not share a commitment")
	}
	q := g.Order()
	dc := new(big.Int).Sub(sumMod(t1.Challenges, q), sumMod(t2.Challenges, q))
	dc.Mod(dc, q)
	if dc.Sign() == 0 {
		return nil, fmt.Errorf("zkp: transcripts have equal total challenge")
	}
	dz := new(big.Int).Sub(t1.Response, t2.Response)
	dz.Mod(dz, q)
	return dz.Mul(dz, new(big.Int).ModInverse(dc, q)).Mod(dz, q), nil
}

// SimulateTranscript produces an accepting transcript for public key y
// without knowledge of the secret — the standard HVZK simulator. It
// exists so tests can check transcripts carry no knowledge beyond
// validity (simulated and real transcripts verify identically).
func SimulateTranscript(g group.Group, y group.Element, nVerifiers int, rng io.Reader) (Transcript, error) {
	z, err := g.RandomScalar(rng)
	if err != nil {
		return Transcript{}, err
	}
	challenges := make([]*big.Int, nVerifiers)
	for j := range challenges {
		if challenges[j], err = NewChallenge(g, rng); err != nil {
			return Transcript{}, err
		}
	}
	// h = g^z · y^(−Σc) makes the verification equation hold by design.
	h := g.Op(group.ExpGen(g, z), g.Inv(g.Exp(y, sumMod(challenges, g.Order()))))
	return Transcript{Commitment: h, Challenges: challenges, Response: z}, nil
}

func sumMod(values []*big.Int, q *big.Int) *big.Int {
	s := new(big.Int)
	for _, v := range values {
		s.Add(s, v)
	}
	return s.Mod(s, q)
}
