// Package dotprod implements the secure two-party dot-product protocol of
// Ioannidis, Grama and Atallah (Section IV-A of the paper). Bob holds a
// (d−1)-dimensional vector w; Alice holds a (d−1)-dimensional vector v and
// a private offset α. At the end Bob learns w·v + α and Alice learns
// nothing. Privacy of both inputs rests on the masked linear system being
// underdetermined: Alice sees QX, c' and g, which admit many consistent
// (w, Q, X) assignments; Bob sees a and h, which are masked by α.
//
// The protocol runs over a prime field Z_P supplied by the caller; all
// published quantities are field elements, so partial information does not
// leak through magnitudes. The framework (Section V) instantiates Bob as a
// participant with w = [vg, ve*ve, ve, 1] and Alice as the initiator with
// v = [ρ·wg, −ρ·we, 2ρ(we*ve₀)] and α = ρ_j, making Bob's output the
// masked partial gain β = ρ·p + ρ_j.
package dotprod

import (
	"context"
	"fmt"
	"io"
	"math/big"

	"groupranking/internal/fixedbig"
	"groupranking/internal/kernel"
	"groupranking/internal/obsv"
	"groupranking/internal/wirecodec"
)

// SMin and SMax bound the random matrix dimension s (inclusive): the
// paper notes s need not be large. Bob draws s from this range and
// Alice refuses a flow whose s is outside it (Validate).
const (
	SMin = 5
	SMax = 10
)

// Params fixes the field of one protocol run.
type Params struct {
	// P is the field modulus; it must be prime and comfortably larger
	// than any dot product the caller can produce.
	P *big.Int
	// Obs, when non-nil, receives the field-multiplication counts of
	// this party's side of the protocol.
	Obs *obsv.Party
	// Workers bounds the goroutines the matrix arithmetic fans out on
	// (0 = NumCPU, 1 = serial). Randomness is always drawn serially, so
	// every worker count produces identical flows.
	Workers int
}

// DefaultSRange returns params over field P (s ranges over SMin..SMax).
func DefaultSRange(p *big.Int) Params { return Params{P: p} }

func (p Params) validate() error {
	if p.P == nil || p.P.Sign() <= 0 {
		return fmt.Errorf("dotprod: field modulus missing")
	}
	return nil
}

// BobMessage is the first flow, Bob → Alice. Every entry is a field
// element in an integer run at the field's width, the form it travels
// in (wire.go); Validate is the one way back to integers.
type BobMessage struct {
	QX     []wirecodec.Uints // s rows of the s×d masked matrix
	CPrime wirecodec.Uints   // c + R1·R2·f, d entries
	G      wirecodec.Uints   // R1·R3·f, d entries
}

// AliceReply is the second flow, Alice → Bob: a and h, one run.
type AliceReply struct {
	AH wirecodec.Uints
}

// runs returns m's runs in wire order: QX's rows, c', g.
func (m *BobMessage) runs() []wirecodec.Uints {
	return append(append(make([]wirecodec.Uints, 0, len(m.QX)+2), m.QX...), m.CPrime, m.G)
}

// entries is the receive-boundary check for the Bob→Alice flow: over a
// real network the message is attacker-controlled, so s must be inside
// [SMin, SMax] and every run must hold d ≥ 2 reduced field elements at
// the field's width. It returns the runs' integers in wire order.
func (m *BobMessage) entries(p Params) ([][]*big.Int, error) {
	if m == nil {
		return nil, fmt.Errorf("dotprod: missing message")
	}
	s := len(m.QX)
	if s < SMin || s > SMax {
		return nil, fmt.Errorf("dotprod: matrix dimension s=%d outside [%d, %d]", s, SMin, SMax)
	}
	d := m.QX[0].Len()
	if d < 2 {
		return nil, fmt.Errorf("dotprod: vector dimension d=%d too small", d)
	}
	out := make([][]*big.Int, s+2)
	for i, u := range m.runs() {
		var err error
		if out[i], err = wirecodec.IntsOf(u, p.P, d); err != nil {
			return nil, fmt.Errorf("dotprod: run %d of %d: %w", i, s+2, err)
		}
	}
	return out, nil
}

// Validate is the receive-boundary check for the Bob→Alice flow (entries).
func (m *BobMessage) Validate(p Params) error {
	_, err := m.entries(p)
	return err
}

// Validate is the receive-boundary check for the Alice→Bob flow.
func (r *AliceReply) Validate(p Params) error {
	_, err := r.entries(p)
	return err
}

// entries is the reply's receive check, returning a and h.
func (r *AliceReply) entries(p Params) ([]*big.Int, error) {
	if r == nil {
		return nil, fmt.Errorf("dotprod: missing reply")
	}
	return wirecodec.IntsOf(r.AH, p.P, 2)
}

// Bob holds Bob's secret protocol state between the two flows.
type Bob struct {
	params Params
	b      *big.Int // Σ_i Q_{ir}
	r2, r3 *big.Int
	done   bool
}

// FieldBytes is the per-element wire size: the width of P's integer
// runs, which the cost model charges too.
func (p Params) FieldBytes() int { return wirecodec.WidthOf(p.P) }

// NewBob starts the protocol for Bob's vector w, returning his retained
// state and the message for Alice.
func NewBob(params Params, w []*big.Int, rng io.Reader) (*Bob, *BobMessage, error) {
	if err := params.validate(); err != nil {
		return nil, nil, err
	}
	if len(w) == 0 {
		return nil, nil, fmt.Errorf("dotprod: empty input vector")
	}
	P := params.P
	d := len(w) + 1

	sBig, err := fixedbig.RandInt(rng, big.NewInt(SMax-SMin+1))
	if err != nil {
		return nil, nil, err
	}
	s := SMin + int(sBig.Int64())

	rBig, err := fixedbig.RandInt(rng, big.NewInt(int64(s)))
	if err != nil {
		return nil, nil, err
	}
	r := int(rBig.Int64())

	// X: s×d, row r is [w, 1], the rest uniform.
	x := make([][]*big.Int, s)
	for i := range x {
		x[i] = make([]*big.Int, d)
		if i == r {
			for j, wj := range w {
				x[i][j] = new(big.Int).Mod(wj, P)
			}
			x[i][d-1] = big.NewInt(1)
			continue
		}
		for j := range x[i] {
			if x[i][j], err = fixedbig.RandInt(rng, P); err != nil {
				return nil, nil, err
			}
		}
	}

	// Q: s×s uniform, resampled until column r has a non-zero sum so the
	// final division is well defined.
	var q [][]*big.Int
	b := new(big.Int)
	for b.Sign() == 0 {
		q = make([][]*big.Int, s)
		for i := range q {
			q[i] = make([]*big.Int, s)
			for j := range q[i] {
				if q[i][j], err = fixedbig.RandInt(rng, P); err != nil {
					return nil, nil, err
				}
			}
		}
		b.SetInt64(0)
		for i := 0; i < s; i++ {
			b.Add(b, q[i][r])
		}
		b.Mod(b, P)
	}

	// c = Σ_{k≠r} colsum_k · x_k, where colsum_k = Σ_i Q_{ik}.
	c := zeroVec(d)
	for k := 0; k < s; k++ {
		if k == r {
			continue
		}
		colsum := new(big.Int)
		for i := 0; i < s; i++ {
			colsum.Add(colsum, q[i][k])
		}
		colsum.Mod(colsum, P)
		for j := 0; j < d; j++ {
			c[j].Add(c[j], new(big.Int).Mul(colsum, x[k][j]))
			c[j].Mod(c[j], P)
		}
	}

	// Masks.
	r1, err := fixedbig.RandNonZero(rng, P)
	if err != nil {
		return nil, nil, err
	}
	r2, err := fixedbig.RandNonZero(rng, P)
	if err != nil {
		return nil, nil, err
	}
	r3, err := fixedbig.RandNonZero(rng, P)
	if err != nil {
		return nil, nil, err
	}
	f := make([]*big.Int, d)
	for j := range f {
		if f[j], err = fixedbig.RandInt(rng, P); err != nil {
			return nil, nil, err
		}
	}

	r1r2 := new(big.Int).Mul(r1, r2)
	r1r2.Mod(r1r2, P)
	r1r3 := new(big.Int).Mul(r1, r3)
	r1r3.Mod(r1r3, P)
	cPrime := make([]*big.Int, d)
	g := make([]*big.Int, d)
	for j := 0; j < d; j++ {
		cPrime[j] = new(big.Int).Mul(r1r2, f[j])
		cPrime[j].Add(cPrime[j], c[j])
		cPrime[j].Mod(cPrime[j], P)
		g[j] = new(big.Int).Mul(r1r3, f[j])
		g[j].Mod(g[j], P)
	}

	// QX: s×d product. All randomness is drawn by now, so the rows fan
	// out across workers; each row only reads q and x.
	qx := make([][]*big.Int, s)
	_ = kernel.Map(context.Background(), params.Workers, s, func(i int) error {
		qx[i] = make([]*big.Int, d)
		for j := 0; j < d; j++ {
			acc := new(big.Int)
			for k := 0; k < s; k++ {
				acc.Add(acc, new(big.Int).Mul(q[i][k], x[k][j]))
			}
			qx[i][j] = acc.Mod(acc, P)
		}
		return nil
	})

	// Multiplication census of the flows above: the c accumulation
	// ((s−1)·d), the two mask products, the c'/g masking (2d) and the
	// QX product (s²·d).
	params.Obs.Add(obsv.OpFieldMul, int64((s-1)*d+2+2*d+s*s*d))

	runs := make([]wirecodec.Uints, s+2)
	for i, v := range append(qx, cPrime, g) {
		if runs[i], err = wirecodec.UintsOf(params.FieldBytes(), v); err != nil {
			return nil, nil, err
		}
	}
	return &Bob{params: params, b: b, r2: r2, r3: r3},
		&BobMessage{QX: runs[:s:s], CPrime: runs[s], G: runs[s+1]}, nil
}

// AliceRespond computes Alice's reply for her vector v and offset alpha.
// len(v) must equal Bob's input length; alpha occupies the appended
// dimension (the framework's ρ_j).
func AliceRespond(params Params, msg *BobMessage, v []*big.Int, alpha *big.Int) (*AliceReply, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	runs, err := msg.entries(params)
	if err != nil {
		return nil, err
	}
	P := params.P
	s := len(msg.QX)
	qx, cPrime, g := runs[:s], runs[s], runs[s+1]
	d := len(cPrime)
	if len(v)+1 != d {
		return nil, fmt.Errorf("dotprod: dimension mismatch (d=%d, len(v)=%d)", d, len(v))
	}

	vPrime := make([]*big.Int, d)
	for j, vj := range v {
		vPrime[j] = new(big.Int).Mod(vj, P)
	}
	vPrime[d-1] = new(big.Int).Mod(alpha, P)

	// z = Σ_i (QX·v')_i: per-row partial sums in parallel, combined
	// serially in row order so the result is worker-count independent.
	rows := make([]*big.Int, s)
	_ = kernel.Map(context.Background(), params.Workers, s, func(i int) error {
		acc := new(big.Int)
		for j := 0; j < d; j++ {
			acc.Add(acc, new(big.Int).Mul(qx[i][j], vPrime[j]))
		}
		rows[i] = acc
		return nil
	})
	z := new(big.Int)
	for _, row := range rows {
		z.Add(z, row)
	}
	z.Mod(z, P)

	a := new(big.Int).Sub(z, dot(cPrime, vPrime, P))
	a.Mod(a, P)
	h := dot(g, vPrime, P)
	// z is s·d multiplications, the two dot products d each.
	params.Obs.Add(obsv.OpFieldMul, int64(s*d+2*d))
	ah, err := wirecodec.UintsOf(params.FieldBytes(), []*big.Int{a, h})
	if err != nil {
		return nil, err
	}
	return &AliceReply{AH: ah}, nil
}

// Finish recovers Bob's output β = w·v + α mod P from Alice's reply.
// A Bob state is single use.
func (bob *Bob) Finish(reply *AliceReply) (*big.Int, error) {
	if bob.done {
		return nil, fmt.Errorf("dotprod: Finish called twice")
	}
	ah, err := reply.entries(bob.params)
	if err != nil {
		return nil, err
	}
	bob.done = true
	P := bob.params.P
	// β = (a + h·R2/R3) / b.
	r3inv := new(big.Int).ModInverse(bob.r3, P)
	if r3inv == nil {
		return nil, fmt.Errorf("dotprod: R3 not invertible")
	}
	binv := new(big.Int).ModInverse(bob.b, P)
	if binv == nil {
		return nil, fmt.Errorf("dotprod: b not invertible")
	}
	bob.params.Obs.Add(obsv.OpFieldMul, 3)
	beta := new(big.Int).Mul(ah[1], bob.r2)
	beta.Mul(beta, r3inv)
	beta.Add(beta, ah[0])
	beta.Mul(beta, binv)
	return beta.Mod(beta, P), nil
}

// Compute runs the whole protocol in-process: returns w·v + α mod P.
func Compute(params Params, w, v []*big.Int, alpha *big.Int, rng io.Reader) (*big.Int, error) {
	bob, msg, err := NewBob(params, w, rng)
	if err != nil {
		return nil, err
	}
	reply, err := AliceRespond(params, msg, v, alpha)
	if err != nil {
		return nil, err
	}
	return bob.Finish(reply)
}

func zeroVec(d int) []*big.Int {
	v := make([]*big.Int, d)
	for i := range v {
		v[i] = new(big.Int)
	}
	return v
}

func dot(a, b []*big.Int, p *big.Int) *big.Int {
	acc := new(big.Int)
	for i := range a {
		acc.Add(acc, new(big.Int).Mul(a[i], b[i]))
	}
	return acc.Mod(acc, p)
}
