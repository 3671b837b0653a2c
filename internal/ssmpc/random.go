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
	return e.dealSum(k, nil)
}

// dealSum is one round in which every party deals k fresh random
// elements followed by its own secrets (as many at every party), and
// returns the shares of each position's sum over the parties: k joint
// random elements, then Σ_j secrets_j element by element.
func (e *Engine) dealSum(k int, secrets []field.Elem) ([]Share, error) {
	round := e.nextRound()
	total := k + len(secrets)
	slab, err := e.deal(k, secrets)
	if err != nil {
		return nil, err
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
	out := make([]Share, total)
	for j := 0; j < e.cfg.N; j++ {
		for i := range out {
			e.f.Add(&out[i].y, &out[i].y, &cols[j*total+i])
		}
	}
	return out, nil
}

// RandomBits produces k uniformly random shared bits via the classic
// square-and-open construction: draw shared r, open r², reject zero,
// and set b = (r/√(r²) + 1)/2, which is a uniform bit because r/√(r²)
// is a uniform sign. Constant number of rounds per retry batch.
//
// It also returns ints shared integers, the high masks of Mod2m: every
// party draws a uniform u_j in [0, 2^w) per integer and deals it in the
// first round, in the same frame as its contributions to the r values,
// and the integer is Σ_j u_j < n·2^w. No round is added for them, and
// they are never bit-decomposed.
func (e *Engine) RandomBits(k, ints, w int) (bits, sums []Share, err error) {
	if k <= 0 {
		return nil, nil, fmt.Errorf("ssmpc: RandomBits needs k > 0, got %d", k)
	}
	if ints < 0 || ints > 0 && (w < 1 || w >= e.cfg.P.BitLen()) {
		return nil, nil, fmt.Errorf("ssmpc: RandomBits cannot deal %d integers of %d bits in a %d-bit field",
			ints, w, e.cfg.P.BitLen())
	}
	us := make([]field.Elem, ints)
	for i := range us {
		u, err := fixedbig.RandBits(e.rng, w)
		if err != nil {
			return nil, nil, err
		}
		us[i] = e.f.Reduce(u)
	}
	out := make([]Share, 0, k)
	need := k
	for attempts := 0; need > 0; attempts++ {
		if attempts > 64 {
			return nil, nil, fmt.Errorf("ssmpc: RandomBits failed to converge")
		}
		rs, err := e.dealSum(need, us)
		if err != nil {
			return nil, nil, err
		}
		if attempts == 0 {
			rs, sums, us = rs[:need], rs[need:], nil
		}
		sqs, err := e.MulBatch(rs, rs)
		if err != nil {
			return nil, nil, err
		}
		roots, err := e.open(sqs)
		if err != nil {
			return nil, nil, err
		}
		// The canonical root of every opened square (the smaller of the
		// two, so every party picks the same sign); a zero stays zero
		// through the batch inversion and marks a slot to retry.
		for i := range roots {
			if !e.f.Sqrt(&roots[i], &roots[i]) {
				return nil, nil, fmt.Errorf("ssmpc: opened square %s has no root", e.f.ToBig(&roots[i]))
			}
		}
		e.f.InvBatch(roots)
		for i := range roots {
			if roots[i].IsZero() {
				continue // r was zero (probability 1/p); retry that slot
			}
			// b = (r·w⁻¹ + 1)/2.
			b := e.Add(e.scale(rs[i], &roots[i]), e.one)
			out = append(out, e.scale(b, &e.invPow2[1]))
		}
		need = k - len(out)
	}
	return out, sums, nil
}
