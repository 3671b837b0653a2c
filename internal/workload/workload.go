// Package workload models the paper's questionnaire domain (Section
// III-A): m-dimensional attribute vectors whose first t dimensions are
// "equal to" attributes (the initiator prefers values near her criterion)
// and whose remaining m−t are "greater than" attributes (the more above
// the threshold the better), plus the gain and partial-gain arithmetic of
// Definition 1 and the dot-product vector encodings of Section V. It
// also generates random workloads for benchmarks and examples.
package workload

import (
	"fmt"
	"io"
	"math"
	"math/big"

	"groupranking/internal/fixedbig"
)

// Kind distinguishes the two attribute classes of Section III-A.
type Kind int

const (
	// EqualTo attributes are best near the criterion value (age, blood
	// pressure level in the motivating example).
	EqualTo Kind = iota + 1
	// GreaterThan attributes are best above the criterion value (number
	// of friends, annual income).
	GreaterThan
)

// String returns the kind's text, "eq" or "gt" (Kind(n) for any other
// value).
func (k Kind) String() string {
	b, err := k.MarshalText()
	if err != nil {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return string(b)
}

// MarshalText spells the kind as rankd's API, rankparty's -attrs and
// grouprank's scenario files do: "eq" or "gt". Any other value, the
// zero Kind included, is an error, so a bad kind is never sent.
func (k Kind) MarshalText() ([]byte, error) {
	switch k {
	case EqualTo:
		return []byte("eq"), nil
	case GreaterThan:
		return []byte("gt"), nil
	}
	return nil, fmt.Errorf("workload: invalid attribute kind %d", int(k))
}

// UnmarshalText parses "eq" or "gt" and refuses anything else.
func (k *Kind) UnmarshalText(text []byte) error {
	switch string(text) {
	case "eq":
		*k = EqualTo
	case "gt":
		*k = GreaterThan
	default:
		return fmt.Errorf("workload: unknown attribute kind %q (want \"eq\" or \"gt\")", text)
	}
	return nil
}

// Attribute names one questionnaire dimension.
type Attribute struct {
	Name string `json:"name"`
	Kind Kind   `json:"kind"`
}

// Questionnaire is the published attribute-name vector. The paper's
// convention (without loss of generality) is that the first T dimensions
// are EqualTo and the rest GreaterThan; NewQuestionnaire enforces it.
type Questionnaire struct {
	attrs []Attribute
	t     int // number of EqualTo attributes
}

// NewQuestionnaire validates the attribute ordering and returns the
// questionnaire.
func NewQuestionnaire(attrs []Attribute) (*Questionnaire, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("workload: questionnaire needs at least one attribute")
	}
	t := 0
	seenGreater := false
	for i, a := range attrs {
		switch a.Kind {
		case EqualTo:
			if seenGreater {
				return nil, fmt.Errorf("workload: attribute %d (%s) is equal-to after a greater-than attribute; the paper's layout requires equal-to attributes first", i, a.Name)
			}
			t++
		case GreaterThan:
			seenGreater = true
		default:
			return nil, fmt.Errorf("workload: attribute %d (%s) has invalid kind", i, a.Name)
		}
	}
	cp := make([]Attribute, len(attrs))
	copy(cp, attrs)
	return &Questionnaire{attrs: cp, t: t}, nil
}

// Uniform builds an unnamed questionnaire with t equal-to attributes
// followed by m−t greater-than attributes, the shape used by benchmarks.
func Uniform(m, t int) (*Questionnaire, error) {
	if t < 0 || t > m {
		return nil, fmt.Errorf("workload: t=%d outside [0, %d]", t, m)
	}
	attrs := make([]Attribute, m)
	for i := range attrs {
		if i < t {
			attrs[i] = Attribute{Name: fmt.Sprintf("eq%d", i), Kind: EqualTo}
		} else {
			attrs[i] = Attribute{Name: fmt.Sprintf("gt%d", i), Kind: GreaterThan}
		}
	}
	return NewQuestionnaire(attrs)
}

// M returns the attribute dimension.
func (q *Questionnaire) M() int { return len(q.attrs) }

// T returns the number of equal-to attributes (the paper's t).
func (q *Questionnaire) T() int { return q.t }

// Attributes returns a copy of the attribute list.
func (q *Questionnaire) Attributes() []Attribute {
	cp := make([]Attribute, len(q.attrs))
	copy(cp, q.attrs)
	return cp
}

// Criterion is the initiator's private pair (v₀, w).
type Criterion struct {
	Values  []int64 `json:"values"`  // v₀, d1-bit unsigned attribute values
	Weights []int64 `json:"weights"` // w, d2-bit unsigned weights
}

// Profile is one participant's information vector v_j.
type Profile struct {
	Values []int64 `json:"values"`
}

func (q *Questionnaire) checkDim(name string, n int) error {
	if n != q.M() {
		return fmt.Errorf("workload: %s has %d entries, questionnaire has %d attributes", name, n, q.M())
	}
	return nil
}

// Gain evaluates Definition 1:
//
//	g = Σ_{k>t} w_k·(v_k − v⁰_k) − Σ_{k≤t} w_k·(v_k − v⁰_k)².
func (q *Questionnaire) Gain(c Criterion, p Profile) (*big.Int, error) {
	if err := q.checkDim("criterion values", len(c.Values)); err != nil {
		return nil, err
	}
	if err := q.checkDim("criterion weights", len(c.Weights)); err != nil {
		return nil, err
	}
	if err := q.checkDim("profile", len(p.Values)); err != nil {
		return nil, err
	}
	g := new(big.Int)
	for k := 0; k < q.M(); k++ {
		diff := big.NewInt(p.Values[k] - c.Values[k])
		w := big.NewInt(c.Weights[k])
		if k < q.t {
			term := new(big.Int).Mul(diff, diff)
			term.Mul(term, w)
			g.Sub(g, term)
		} else {
			g.Add(g, new(big.Int).Mul(w, diff))
		}
	}
	return g, nil
}

// PartialGain evaluates the ranking-equivalent partial gain of Section
// III-A:
//
//	p = Σ_{k>t} w_k·v_k − Σ_{k≤t} (w_k·v_k² − 2·w_k·v_k·v⁰_k),
//
// which differs from Gain by a profile-independent constant, so it
// induces the same ranking while hiding part of the criterion.
func (q *Questionnaire) PartialGain(c Criterion, p Profile) (*big.Int, error) {
	if err := q.checkDim("criterion values", len(c.Values)); err != nil {
		return nil, err
	}
	if err := q.checkDim("criterion weights", len(c.Weights)); err != nil {
		return nil, err
	}
	if err := q.checkDim("profile", len(p.Values)); err != nil {
		return nil, err
	}
	out := new(big.Int)
	for k := 0; k < q.M(); k++ {
		w := big.NewInt(c.Weights[k])
		v := big.NewInt(p.Values[k])
		if k < q.t {
			sq := new(big.Int).Mul(v, v)
			sq.Mul(sq, w)
			out.Sub(out, sq)
			cross := new(big.Int).Mul(w, v)
			cross.Mul(cross, big.NewInt(2*c.Values[k]))
			out.Add(out, cross)
		} else {
			out.Add(out, new(big.Int).Mul(w, v))
		}
	}
	return out, nil
}

// ParticipantVector builds the participant's dot-product input
// [vg, ve*ve, ve] (Section V, step 2). The paper's w'_j carries a
// trailing 1 that pairs with the initiator's ρ_j; in our dot-product
// implementation that dimension is the protocol's built-in offset slot
// (Bob's appended 1 and Alice's α), so it is omitted here.
func (q *Questionnaire) ParticipantVector(p Profile) ([]*big.Int, error) {
	if err := q.checkDim("profile", len(p.Values)); err != nil {
		return nil, err
	}
	t, m := q.t, q.M()
	out := make([]*big.Int, 0, m+t)
	for k := t; k < m; k++ { // vg
		out = append(out, big.NewInt(p.Values[k]))
	}
	for k := 0; k < t; k++ { // ve * ve
		out = append(out, new(big.Int).Mul(big.NewInt(p.Values[k]), big.NewInt(p.Values[k])))
	}
	for k := 0; k < t; k++ { // ve
		out = append(out, big.NewInt(p.Values[k]))
	}
	return out, nil
}

// InitiatorVector builds v'_j = [ρ·wg, −ρ·we, 2ρ(we*ve₀), ρ_j] (Section
// V, step 3) without the final ρ_j entry, which the dot-product protocol
// carries as its offset α.
func (q *Questionnaire) InitiatorVector(c Criterion, rho *big.Int) ([]*big.Int, error) {
	if err := q.checkDim("criterion values", len(c.Values)); err != nil {
		return nil, err
	}
	if err := q.checkDim("criterion weights", len(c.Weights)); err != nil {
		return nil, err
	}
	t, m := q.t, q.M()
	out := make([]*big.Int, 0, m+t)
	for k := t; k < m; k++ { // ρ·wg
		out = append(out, new(big.Int).Mul(rho, big.NewInt(c.Weights[k])))
	}
	for k := 0; k < t; k++ { // −ρ·we
		v := new(big.Int).Mul(rho, big.NewInt(c.Weights[k]))
		out = append(out, v.Neg(v))
	}
	for k := 0; k < t; k++ { // 2ρ·(we*ve₀)
		v := new(big.Int).Mul(rho, big.NewInt(2*c.Weights[k]*c.Values[k]))
		out = append(out, v)
	}
	return out, nil
}

// partialGainBits returns a provably sufficient signed bit width for any
// partial gain under the given dimensions: |p| ≤ m·2^{d2}·(2^{2·d1}+2^{d1+1}·2^{d1})
// < m·2^{2·d1+d2+2}, so ⌈log m⌉ + 2·d1 + d2 + 3 bits (sign included)
// always suffice. The paper states (⌈log m⌉ + d1 + 2·d2 + 2); we use the
// conservative bound for protocol correctness and keep the paper's
// formula in the analytic cost model (see EXPERIMENTS.md).
func partialGainBits(m, d1, d2 int) int {
	return ceilLog2(m) + 2*d1 + d2 + 3
}

// BetaBits returns the bit width l of the masked partial gain
// β = ρ·p + ρ_j for an h-bit ρ.
func BetaBits(m, d1, d2, h int) int {
	return h + partialGainBits(m, d1, d2)
}

// PaperBetaBits is the paper's published formula
// l = h + ⌈log m⌉ + d1 + 2·d2 + 2, used by the analytic cost model.
func PaperBetaBits(m, d1, d2, h int) int {
	return h + ceilLog2(m) + d1 + 2*d2 + 2
}

func ceilLog2(m int) int {
	if m <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(m))))
}

// RandomCriterion samples a criterion with d1-bit values and d2-bit
// non-zero weights.
func RandomCriterion(q *Questionnaire, d1, d2 int, rng io.Reader) (Criterion, error) {
	values, err := randomVec(q.M(), d1, rng)
	if err != nil {
		return Criterion{}, err
	}
	weights, err := randomNonZeroVec(q.M(), d2, rng)
	if err != nil {
		return Criterion{}, err
	}
	return Criterion{Values: values, Weights: weights}, nil
}

// RandomProfile samples a participant profile with d1-bit values.
func RandomProfile(q *Questionnaire, d1 int, rng io.Reader) (Profile, error) {
	values, err := randomVec(q.M(), d1, rng)
	if err != nil {
		return Profile{}, err
	}
	return Profile{Values: values}, nil
}

// RandomProfiles samples n participant profiles.
func RandomProfiles(q *Questionnaire, n, d1 int, rng io.Reader) ([]Profile, error) {
	out := make([]Profile, n)
	for i := range out {
		p, err := RandomProfile(q, d1, rng)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

func randomVec(m, bits int, rng io.Reader) ([]int64, error) {
	if bits <= 0 || bits > 62 {
		return nil, fmt.Errorf("workload: bit width %d outside (0, 62]", bits)
	}
	out := make([]int64, m)
	for i := range out {
		v, err := fixedbig.RandBits(rng, bits)
		if err != nil {
			return nil, err
		}
		out[i] = v.Int64()
	}
	return out, nil
}

func randomNonZeroVec(m, bits int, rng io.Reader) ([]int64, error) {
	out, err := randomVec(m, bits, rng)
	if err != nil {
		return nil, err
	}
	for i := range out {
		if out[i] == 0 {
			out[i] = 1
		}
	}
	return out, nil
}
