package ssmpc

import (
	"fmt"
	"math/big"

	"groupranking/internal/fixedbig"
)

// BitLTPublicBatch computes shares of the bits [c_k < r_k] for a batch of
// instances: each c_k is public and each r_k is given by shared bits (all
// little-endian, same width). It is the bitwise less-than circuit at the
// heart of the statistically masked comparison: locate the most
// significant differing bit with a prefix-OR and return r's bit there.
// The prefix-OR is sequential in the bit index but batched across
// instances, so a batch of any size costs the same m rounds.
func (e *Engine) BitLTPublicBatch(cBitsList [][]uint8, rBitsList [][]Share) ([]Share, error) {
	k := len(cBitsList)
	if k != len(rBitsList) {
		return nil, fmt.Errorf("ssmpc: BitLT batch size mismatch %d vs %d", k, len(rBitsList))
	}
	if k == 0 {
		return nil, nil
	}
	m := len(rBitsList[0])
	if m == 0 {
		return nil, fmt.Errorf("ssmpc: BitLT on empty inputs")
	}
	// d[k][i] = c_i XOR r_i, local because c is public.
	d := make([][]Share, k)
	for j := 0; j < k; j++ {
		if len(cBitsList[j]) != m || len(rBitsList[j]) != m {
			return nil, fmt.Errorf("ssmpc: BitLT width mismatch in instance %d", j)
		}
		d[j] = make([]Share, m)
		for i := 0; i < m; i++ {
			if cBitsList[j][i] == 0 {
				d[j][i] = rBitsList[j][i]
			} else {
				d[j][i] = e.Sub(e.one, rBitsList[j][i])
			}
		}
	}
	// Prefix OR from the most significant bit: f_i = OR(d_{m-1} .. d_i).
	// One MulBatch per bit position, all instances in parallel.
	f := make([][]Share, k)
	for j := range f {
		f[j] = make([]Share, m)
		f[j][m-1] = d[j][m-1]
	}
	for i := m - 2; i >= 0; i-- {
		as := make([]Share, k)
		bs := make([]Share, k)
		for j := 0; j < k; j++ {
			as[j] = f[j][i+1]
			bs[j] = d[j][i]
		}
		prods, err := e.MulBatch(as, bs)
		if err != nil {
			return nil, err
		}
		for j := 0; j < k; j++ {
			f[j][i] = e.Sub(e.Add(f[j][i+1], d[j][i]), prods[j])
		}
	}
	// ind_i = f_i − f_{i+1} marks the most significant differing bit;
	// [c < r] = Σ ind_i · r_i (r holds the 1 at the deciding position).
	flatInd := make([]Share, 0, k*m)
	flatR := make([]Share, 0, k*m)
	for j := 0; j < k; j++ {
		for i := 0; i < m; i++ {
			var ind Share
			if i == m-1 {
				ind = f[j][m-1]
			} else {
				ind = e.Sub(f[j][i], f[j][i+1])
			}
			flatInd = append(flatInd, ind)
			flatR = append(flatR, rBitsList[j][i])
		}
	}
	prods, err := e.MulBatch(flatInd, flatR)
	if err != nil {
		return nil, err
	}
	out := make([]Share, k)
	for j := 0; j < k; j++ {
		var acc Share
		for i := 0; i < m; i++ {
			acc = e.Add(acc, prods[j*m+i])
		}
		out[j] = acc
	}
	return out, nil
}

// Mod2mBatch computes shares of x_k mod 2^m for shared values known to
// lie in [0, 2^lPrime). It is the statistically masked truncation
// protocol: open y = x + r' + 2^m·r” for jointly random bit-composed
// masks, reduce the public y, and correct the underflow with the bitwise
// less-than circuit. The field prime must exceed 2^(lPrime+Kappa+2) so
// the opened values never wrap modulo p.
func (e *Engine) Mod2mBatch(xs []Share, lPrime, m int) ([]Share, error) {
	k := len(xs)
	if k == 0 {
		return nil, nil
	}
	if m <= 0 || lPrime < m {
		return nil, fmt.Errorf("ssmpc: Mod2m invalid widths l'=%d m=%d", lPrime, m)
	}
	if err := e.checkWidth(lPrime); err != nil {
		return nil, err
	}
	// Low mask r' from m shared bits and high mask r'' from
	// kappa+lPrime−m shared bits, for every instance, in one batch.
	highBits := Kappa + lPrime - m
	per := m + highBits
	allBits, err := e.RandomBits(k * per)
	if err != nil {
		return nil, err
	}
	rLowBits := make([][]Share, k)
	ySh := make([]Share, k)
	rLow := make([]Share, k)
	for j := 0; j < k; j++ {
		bits := allBits[j*per : (j+1)*per]
		rLowBits[j] = bits[:m]
		var rl, rh Share
		for i, b := range bits[:m] {
			rl = e.Add(rl, e.scale(b, &e.pow2[i]))
		}
		rLow[j] = rl
		for i, b := range bits[m:] {
			rh = e.Add(rh, e.scale(b, &e.pow2[i]))
		}
		// y = x + r' + 2^m·r''.
		ySh[j] = e.Add(xs[j], e.Add(rl, e.scale(rh, &e.pow2[m])))
	}
	ys, err := e.OpenBatch(ySh)
	if err != nil {
		return nil, err
	}
	// The opened y values are public integers, not shares: their low
	// bits are taken in math/big.
	mask := new(big.Int).Lsh(big.NewInt(1), uint(m))
	mask.Sub(mask, big.NewInt(1))
	yLows := make([]*big.Int, k)
	cBitsList := make([][]uint8, k)
	for j := 0; j < k; j++ {
		yLows[j] = new(big.Int).And(ys[j], mask)
		if cBitsList[j], err = fixedbig.Bits(yLows[j], m); err != nil {
			return nil, err
		}
	}
	us, err := e.BitLTPublicBatch(cBitsList, rLowBits)
	if err != nil {
		return nil, err
	}
	// x mod 2^m = y' − r' + 2^m·[y' < r'].
	out := make([]Share, k)
	for j := 0; j < k; j++ {
		res := e.Sub(e.ConstShare(yLows[j]), rLow[j])
		out[j] = e.Add(res, e.scale(us[j], &e.pow2[m]))
	}
	return out, nil
}

// GTEBatch computes shares of the bits [a_k ≥ b_k] for shared l-bit
// values: c = a − b + 2^l lies in (0, 2^(l+1)) and its l-th bit is the
// answer, extracted with Mod2mBatch. The whole batch costs the same
// number of rounds as a single comparison, which is what makes the
// layer-parallel sorting network of the baseline meaningful.
func (e *Engine) GTEBatch(as, bs []Share, l int) ([]Share, error) {
	if len(as) != len(bs) {
		return nil, fmt.Errorf("ssmpc: GTE batch size mismatch %d vs %d", len(as), len(bs))
	}
	if l <= 0 {
		return nil, fmt.Errorf("ssmpc: GTE needs positive width, got %d", l)
	}
	k := len(as)
	if k == 0 {
		return nil, nil
	}
	if err := e.checkWidth(l + 1); err != nil {
		return nil, err
	}
	cs := make([]Share, k)
	for j := 0; j < k; j++ {
		cs[j] = e.Add(e.Sub(as[j], bs[j]), Share{y: e.pow2[l]})
	}
	lows, err := e.Mod2mBatch(cs, l+1, l)
	if err != nil {
		return nil, err
	}
	out := make([]Share, k)
	for j := 0; j < k; j++ {
		// bit = (c − (c mod 2^l)) / 2^l.
		out[j] = e.scale(e.Sub(cs[j], lows[j]), &e.invPow2[l])
	}
	return out, nil
}

// checkWidth reports whether the field can carry the masked opening of
// an lPrime-bit value: the prime must exceed 2^(lPrime+Kappa+2) so the
// opened values never wrap modulo p. It also keeps every index into the
// pow2 tables below the field width.
func (e *Engine) checkWidth(lPrime int) error {
	if e.cfg.P.BitLen() < lPrime+Kappa+3 {
		return fmt.Errorf("ssmpc: field too small for Mod2m (need > %d bits, have %d)",
			lPrime+Kappa+2, e.cfg.P.BitLen())
	}
	return nil
}
