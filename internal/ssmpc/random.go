package ssmpc

import (
	"fmt"

	"groupranking/internal/field"
	"groupranking/internal/fixedbig"
)

// RandomElements produces k shared field elements unknown to any
// coalition of up to Degree parties: every party deals a random
// contribution and the results are summed. One communication round.
func (e *Engine) RandomElements(k int) ([]Share, error) {
	if k <= 0 {
		return nil, fmt.Errorf("ssmpc: RandomElements needs k > 0, got %d", k)
	}
	sums, err := e.dealSum(k, nil)
	if err != nil {
		return nil, err
	}
	return wrapAll(sums), nil
}

// dealSum is one round in which every party deals fresh random
// elements at degree d, each drawn right before its polynomial,
// followed by its own secrets at degree 2d (as many at every party),
// and returns the shares of each position's sum over the parties: fresh
// joint random elements at degree d, then Σ_j secrets_j element by
// element at degree 2d.
func (e *Engine) dealSum(fresh int, wide []field.Elem) ([]field.Elem, error) {
	round := e.nextRound()
	total := fresh + len(wide)
	slab := make([]field.Elem, e.cfg.N*total)
	for i := 0; i < fresh; i++ {
		r, err := e.sch.Rand(e.rng)
		if err != nil {
			return nil, err
		}
		if err := e.split(slab, total, i, e.sch, &r); err != nil {
			return nil, err
		}
	}
	for i := range wide {
		if err := e.split(slab, total, fresh+i, e.wide, &wide[i]); err != nil {
			return nil, err
		}
	}
	if err := e.sendPieces(round, slab, total); err != nil {
		return nil, err
	}
	all, err := e.gather(round)
	if err != nil {
		return nil, err
	}
	cols, err := e.columns(all, slab[e.me*total:(e.me+1)*total], "random")
	if err != nil {
		return nil, err
	}
	out := make([]field.Elem, total)
	for j := 0; j < e.cfg.N; j++ {
		for i := range out {
			e.f.Add(&out[i], &out[i], &cols[j*total+i])
		}
	}
	return out, nil
}

// Masks is what one RandomBits call deals.
type Masks struct {
	// Bits are uniform shared bits at degree d.
	Bits []Share
	// Highs are Mod2m's high masks r” = Σ_j u_j, each party's u_j
	// uniform in [0, 2^w), at degree 2d.
	Highs []Wide
	// Zeros are degree-2d sharings of zero, with every party's
	// contribution in their coefficients, for OpenWide.
	Zeros []Wide
}

// RandomBits produces k uniformly random shared bits via the classic
// square-and-open construction: draw shared r, open r², reject zero,
// and set b = (r/√(r²) + 1)/2, which is a uniform bit because r/√(r²)
// is a uniform sign. The square is opened from its degree-2d local
// shares with a zero-sharing added (see the package doc), so a batch is
// two rounds: the first deals r and the zero-sharing, the second opens.
//
// The first round also deals ints high masks of w bits and zeros more
// zero-sharings, in the same frame: every party draws a uniform u_j in
// [0, 2^w) per integer, and the integer is Σ_j u_j < n·2^w. No round is
// added for them, and the integers are never bit-decomposed.
func (e *Engine) RandomBits(k, ints, w, zeros int) (Masks, error) {
	if k <= 0 {
		return Masks{}, fmt.Errorf("ssmpc: RandomBits needs k > 0, got %d", k)
	}
	if ints < 0 || zeros < 0 || ints > 0 && (w < 1 || w >= e.cfg.P.BitLen()) {
		return Masks{}, fmt.Errorf("ssmpc: RandomBits cannot deal %d integers of %d bits in a %d-bit field and %d zero-sharings",
			ints, w, e.cfg.P.BitLen(), zeros)
	}
	// After the squares' zero-sharings, the first round deals these.
	extra := make([]field.Elem, ints+zeros)
	for i := 0; i < ints; i++ {
		u, err := fixedbig.RandBits(e.rng, w)
		if err != nil {
			return Masks{}, err
		}
		extra[i] = e.f.Reduce(u)
	}
	var m Masks
	m.Bits = make([]Share, 0, k)
	need := k
	for attempts := 0; need > 0; attempts++ {
		if attempts > 64 {
			return Masks{}, fmt.Errorf("ssmpc: RandomBits failed to converge")
		}
		dealt, err := e.dealSum(need, append(make([]field.Elem, need), extra...))
		if err != nil {
			return Masks{}, err
		}
		rs := wrapAll(dealt[:need])
		if attempts == 0 {
			m.Highs = wrapWide(dealt[2*need : 2*need+ints])
			m.Zeros = wrapWide(dealt[2*need+ints:])
			extra = nil
		}
		sqs, err := e.randomise(e.Products(rs, rs), wrapWide(dealt[need:2*need]))
		if err != nil {
			return Masks{}, err
		}
		roots, err := e.open(sqs)
		if err != nil {
			return Masks{}, err
		}
		// The canonical root of every opened square (the smaller of the
		// two, so every party picks the same sign); a zero stays zero
		// through the batch inversion and marks a slot to retry.
		for i := range roots {
			if !e.f.Sqrt(&roots[i], &roots[i]) {
				return Masks{}, fmt.Errorf("ssmpc: opened square %s has no root", e.f.ToBig(&roots[i]))
			}
		}
		e.f.InvBatch(roots)
		for i := range roots {
			if roots[i].IsZero() {
				continue // r was zero (probability 1/p); retry that slot
			}
			// b = (r·w⁻¹ + 1)/2.
			b := e.Add(e.scale(rs[i], &roots[i]), e.one)
			m.Bits = append(m.Bits, e.scale(b, &e.invPow2[1]))
		}
		need = k - len(m.Bits)
	}
	return m, nil
}
