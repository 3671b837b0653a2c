// Package costmodel encodes the efficiency analysis of Section VI-B and
// calibrates it with measured primitive timings, so the paper-scale
// figures (n up to 100, 1024–3072-bit groups) can be regenerated on a
// laptop without hours of raw exponentiation. The operation counts follow
// the protocol implementations in this repository exactly; tests
// cross-check the synthetic communication traces against traces recorded
// from real small-n protocol runs.
//
// Conventions: "exp" is one group exponentiation (≈1.5·λ group
// multiplications for a λ-bit exponent); "field mult" is one modular
// multiplication in the SS baseline's prime field. The SS comparison
// constant is the paper's published 279·l+5 multiplication-protocol
// invocations per comparison (Nishide–Ohta), applied to the exact
// Batcher comparator count.
package costmodel

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"time"

	"groupranking/internal/core"
	"groupranking/internal/fixedbig"
	"groupranking/internal/group"
	"groupranking/internal/netsim"
	"groupranking/internal/ssmpc"
	"groupranking/internal/sssort"
	"groupranking/internal/transport"
	"groupranking/internal/workload"
)

// Setting mirrors one evaluation configuration of Section VII.
type Setting struct {
	N  int // participants
	M  int // attribute dimension
	D1 int // attribute bits
	D2 int // weight bits
	H  int // ρ bits
}

// PaperDefaults returns the Section VII baseline setting
// (n=25, m=10, d1=15, h=15; d2 is unstated in the paper, fixed at 10).
func PaperDefaults() Setting {
	return Setting{N: 25, M: 10, D1: 15, D2: 10, H: 15}
}

// L returns the β bit width of the paper's formula l = h + ⌈log m⌉ +
// d1 + 2·d2 + 2 (Section III-A), which the analytic curves use to match
// the paper's parameter sensitivity. The implementation derives l from t
// (core.Params.BetaBits), which differs slightly from the paper's ⌈log m⌉
// bound, so the closed forms and the trace take l as an argument.
func (s Setting) L() int {
	return workload.PaperBetaBits(s.M, s.D1, s.D2, s.H)
}

// ---- Operation counts: our framework (per participant) ----

// ParticipantExps counts a participant's group exponentiations across
// the unlinkable comparison phase, exactly as implemented (the
// observability registry's group_exp counter matches this number, and
// the cross-validation test asserts it):
//
//	keys + n-verifier proofs (step 5):  2n          (gen 1 + commit 1 + verify 2(n−1))
//	bitwise encryption (step 6):        2l          (EncryptExp = 2 exps per bit)
//	comparison circuit (step 7):        (n−1)(5l+1) (per peer: suffix enc 2 +
//	                                    per bit: scalar-mul 2, weight add 1
//	                                    except the weight-1 bit, re-rand 2)
//	decrypt-shuffle chain (step 8):     3l(n−1)²    ← dominant, O(l·n²)
//	                                    (per ct: partial-decrypt 1 + blind 2)
//	final decryption (step 9):          l(n−1)
func ParticipantExps(n, l int) int64 {
	nn, ll := int64(n), int64(l)
	return 2*nn + 2*ll + (nn-1)*(5*ll+1) + 3*ll*(nn-1)*(nn-1) + ll*(nn-1)
}

// ---- Operation counts: SS baseline (per party) ----

// ssMultsPerComparison is the paper's Nishide–Ohta constant: 279·l+5
// multiplication-protocol invocations per l-bit comparison, plus one for
// the oblivious swap.
func ssMultsPerComparison(l int) int64 { return 279*int64(l) + 5 + 1 }

// ssMultInvocations is the total multiplication-protocol invocations of
// one baseline sort: the exact Batcher comparator count for n wires
// times the invocations per comparison.
func ssMultInvocations(n, l int) int64 {
	return int64(sssort.Comparators(n)) * ssMultsPerComparison(l)
}

// SSFieldMultsPerParty converts invocations to per-party field
// multiplications. Each GRR98 invocation makes every party reshare its
// product share — a degree-d Horner evaluation at each of n points
// (n·d multiplications, exactly what shamir.Split performs) — and
// recombine n received pieces (n more), so n·(d+1) per invocation with
// d = (n−1)/2, the maximal-resistance setting the paper analyses. This
// is what makes the baseline grow on "the cubic order of n"
// (Fig. 2(a)): comparators ~ n·log²n times per-invocation work ~ n².
func SSFieldMultsPerParty(n, l int) int64 {
	d := int64((n - 1) / 2)
	return ssMultInvocations(n, l) * int64(n) * (d + 1)
}

// SSBytesPerParty is the per-party traffic: each invocation reshares to
// n−1 peers, one field element each.
func SSBytesPerParty(n, l, fieldBytes int) int64 {
	return ssMultInvocations(n, l) * int64(n-1) * int64(fieldBytes)
}

// SSRoundsSerial is the paper's round bound: one round per
// multiplication-protocol invocation.
func SSRoundsSerial(n, l int) int64 { return ssMultInvocations(n, l) }

// SSRoundsNishideOhta is the round count of the paper's actual baseline
// configuration: the Nishide–Ohta comparison is constant round
// (three parallel interval tests, ≈13 synchronous rounds), so a layered
// sorting network costs 13 rounds per layer regardless of l. Fig. 3(b)
// uses this model — it is what gives the baseline its small-n advantage
// over the chain-serialised DL framework.
func SSRoundsNishideOhta(n int) int64 {
	return int64(sssort.Depth(n))*13 + int64(n)
}

// ---- Measured primitive timings ----

// Timings carries measured per-operation costs.
type Timings struct {
	// ExpSec maps group name to the wall time of one exponentiation
	// with a random full-size scalar.
	ExpSec map[string]float64
	// FieldMulSec maps a field bit size to one modular
	// multiplication's wall time.
	FieldMulSec map[int]float64
}

// MeasureGroups times one exponentiation in each group. It records the
// minimum of iters samples: the minimum is the robust estimator of the
// true cost under scheduler interference, which matters because these
// numbers scale entire figures.
func MeasureGroups(groups []group.Group, iters int) (*Timings, error) {
	if iters < 1 {
		return nil, fmt.Errorf("costmodel: need at least one iteration")
	}
	t := &Timings{ExpSec: make(map[string]float64, len(groups)), FieldMulSec: make(map[int]float64)}
	rng := fixedbig.NewDRBG("costmodel-measure")
	for _, g := range groups {
		base := g.Generator()
		k, err := g.RandomScalar(rng)
		if err != nil {
			return nil, err
		}
		base = g.Exp(base, k) // warm up
		best := 0.0
		for i := 0; i < iters; i++ {
			k, err := g.RandomScalar(rng)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			base = g.Exp(base, k)
			el := time.Since(start).Seconds()
			if best == 0 || el < best {
				best = el
			}
		}
		t.ExpSec[g.Name()] = best
	}
	return t, nil
}

// MeasureFieldMul times one modular multiplication at the given field
// size and records it in the Timings.
func (t *Timings) MeasureFieldMul(bits, iters int) error {
	if iters < 1 {
		return fmt.Errorf("costmodel: need at least one iteration")
	}
	rng := fixedbig.NewDRBG(fmt.Sprintf("costmodel-field-%d", bits))
	p, err := rand.Prime(rng, bits)
	if err != nil {
		return err
	}
	a, err := fixedbig.RandInt(rng, p)
	if err != nil {
		return err
	}
	b, err := fixedbig.RandInt(rng, p)
	if err != nil {
		return err
	}
	acc := new(big.Int)
	best := 0.0
	for batch := 0; batch < 5; batch++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			acc.Mul(a, b)
			acc.Mod(acc, p)
			a.Set(acc)
		}
		el := time.Since(start).Seconds() / float64(iters)
		if best == 0 || el < best {
			best = el
		}
	}
	t.FieldMulSec[bits] = best
	return nil
}

// OursParticipantSec estimates one participant's computation time in
// our framework over the named group.
func (t *Timings) OursParticipantSec(g group.Group, s Setting) (float64, error) {
	exp, ok := t.ExpSec[g.Name()]
	if !ok {
		return 0, fmt.Errorf("costmodel: group %s not measured", g.Name())
	}
	return float64(ParticipantExps(s.N, s.L())) * exp, nil
}

// SSParticipantSec estimates one party's computation time in the SS
// baseline. fieldBits selects the measured multiplication size.
func (t *Timings) SSParticipantSec(s Setting, fieldBits int) (float64, error) {
	mul, ok := t.FieldMulSec[fieldBits]
	if !ok {
		return 0, fmt.Errorf("costmodel: field size %d not measured", fieldBits)
	}
	return float64(SSFieldMultsPerParty(s.N, s.L())) * mul, nil
}

// SSFieldBits is the baseline's field size for l-bit comparisons with
// the statistical parameter ssmpc.Kappa.
func (s Setting) SSFieldBits() int { return s.L() + ssmpc.Kappa + 8 }

// ---- Synthetic communication traces (Fig. 3(b)) ----

// OursTrace is the framework's message trace for n+1 parties (party 0 =
// initiator), usable at paper scale without running the cryptography:
// core.Schedule for l-bit gains over g, with fieldBytes-wide dot-product
// entries, expanded at the model's settings — key proofs on,
// ProveDecryption off, t = m/2, the top k = core.DefaultK submitting and
// the dot-product matrix at s = 8 rows (the protocol draws s in [5, 10]).
func OursTrace(s Setting, l int, g group.Group, fieldBytes int) []netsim.Event {
	p := core.Params{N: s.N, M: s.M, T: s.M / 2, K: min(core.DefaultK, s.N), Group: g}
	return expand(core.Schedule(p, l, fieldBytes), 8)
}

// expand lists every message of the rows, one event per sender and
// receiver, with a dot-product flow at dim matrix rows.
func expand(rows []transport.Round, dim int) []netsim.Event {
	var tr []netsim.Event
	for _, r := range rows {
		for from := r.From[0]; from < r.From[1]; from++ {
			for to := r.To[0]; to < r.To[1]; to++ {
				if to != from {
					tr = append(tr, netsim.Event{Round: r.Tag, From: from, To: to, Bytes: r.Size(dim)})
				}
			}
		}
	}
	return tr
}

// SSRoundTrace builds one representative all-to-all resharing round of
// the SS baseline: every party sends elemsPerMsg field elements to every
// other party. Total baseline network time ≈ per-round time × the round
// count (SSRoundsNishideOhta or SSRoundsSerial); all rounds are structurally
// identical, so simulating one and scaling is exact under the
// round-barrier model.
func SSRoundTrace(n, fieldBytes, elemsPerMsg int) []netsim.Event {
	var tr []netsim.Event
	for from := 1; from <= n; from++ {
		for to := 1; to <= n; to++ {
			if to == from {
				continue
			}
			tr = append(tr, netsim.Event{Round: 1, From: from, To: to, Bytes: elemsPerMsg * fieldBytes})
		}
	}
	return tr
}

// SSWireFraction is the one calibrated constant of the Fig. 3(b)
// reproduction: the fraction of the baseline's 279·l+5 multiplication
// invocations that actually crosses the wire per comparison. The
// Nishide–Ohta bound counts multiplications for the computation
// analysis; a deployed implementation batches, reuses precomputed
// randomness, and keeps shared×public products local, so its payload
// volume is a fraction of the bound. The byte-faithful value 1.0 makes
// the baseline's traffic dominate everywhere (no SS/DL crossover); 1/3
// reproduces the paper's qualitative Fig. 3(b): the baseline beats the
// DL framework at small n through message parallelism and falls behind
// as its ~n³·log²n volume saturates the network. Both variants are
// reported by cmd/benchtab.
const SSWireFraction = 1.0 / 3

// SSElemsPerRound is the average per-message batch size given a round
// count: the per-peer total traffic (one field element per
// multiplication invocation) spread over the rounds.
func SSElemsPerRound(n, l int, rounds int64) int {
	total := ssMultInvocations(n, l) // field elements to each peer overall
	per := total / rounds
	if per < 1 {
		per = 1
	}
	return int(per)
}
