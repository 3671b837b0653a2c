package ssmpc

import "fmt"

// RandomElements produces k shared field elements unknown to any
// coalition of up to Degree parties: every party deals a random
// contribution and the results are summed. One communication round.
func (e *Engine) RandomElements(k int) ([]Share, error) {
	if k <= 0 {
		return nil, fmt.Errorf("ssmpc: RandomElements needs k > 0, got %d", k)
	}
	round := e.nextRound()

	slab, err := e.deal(nil, k)
	if err != nil {
		return nil, err
	}
	if err := e.sendPieces(round, slab, k); err != nil {
		return nil, err
	}
	all, err := e.gather(round)
	if err != nil {
		return nil, err
	}
	cols, err := e.columns(all, slab[e.me*k:(e.me+1)*k], "random")
	if err != nil {
		return nil, err
	}
	out := make([]Share, k)
	for j := 0; j < e.cfg.N; j++ {
		for i := range out {
			e.f.Add(&out[i].y, &out[i].y, &cols[j*k+i])
		}
	}
	return out, nil
}

// RandomBits produces k uniformly random shared bits via the classic
// square-and-open construction: draw shared r, open r², reject zero,
// and set b = (r/√(r²) + 1)/2, which is a uniform bit because r/√(r²)
// is a uniform sign. Constant number of rounds per retry batch.
func (e *Engine) RandomBits(k int) ([]Share, error) {
	if k <= 0 {
		return nil, fmt.Errorf("ssmpc: RandomBits needs k > 0, got %d", k)
	}
	out := make([]Share, 0, k)
	need := k
	for attempts := 0; need > 0; attempts++ {
		if attempts > 64 {
			return nil, fmt.Errorf("ssmpc: RandomBits failed to converge")
		}
		rs, err := e.RandomElements(need)
		if err != nil {
			return nil, err
		}
		sqs, err := e.MulBatch(rs, rs)
		if err != nil {
			return nil, err
		}
		roots, err := e.open(sqs)
		if err != nil {
			return nil, err
		}
		// The canonical root of every opened square (the smaller of the
		// two, so every party picks the same sign); a zero stays zero
		// through the batch inversion and marks a slot to retry.
		for i := range roots {
			if !e.f.Sqrt(&roots[i], &roots[i]) {
				return nil, fmt.Errorf("ssmpc: opened square %s has no root", e.f.ToBig(&roots[i]))
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
	return out, nil
}
