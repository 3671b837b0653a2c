package ssmpc

import (
	"fmt"
	"math/big"

	"groupranking/internal/fixedbig"
)

// BitLTPublicBatch computes shares of the bits [c_k < r_k] for a batch of
// instances: each c_k is public and each r_k is given by shared bits (all
// little-endian, same width m). It is the bitwise less-than circuit at
// the heart of the statistically masked comparison.
//
// Read from the least significant bit up, bit i turns "c < r on the bits
// below i" into "c < r on the bits up to i" by the carry map
// lt ↦ a_i + b_i·lt: (r_i, 1 − r_i) where c_i = 0 and (0, r_i) where
// c_i = 1, both linear in r_i because c is public. Bit 0 has no carry
// in, so its map is the constant (1 − c_0)·r_0. The answer is the
// composition of all m maps, (a, b)∘(a', b') = (a + b·a', b·b'), which
// is associative: composing neighbours pairwise, level by level, takes
// ⌈log₂ m⌉ rounds, each one MulBatch across every instance. The
// products depend on m alone, never on the public c, so the traffic
// shows nothing of the opened value: ⌊m/2⌋ at the leaves (one product
// b_hi·r_lo gives both halves of a pair of bit maps), then two per pair
// above them, one where the inner map is the constant (only its a is
// needed). At m = 27 that is 5 rounds and 35 multiplications.
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
	// maps[j][t] is the map of instance j's t-th run of bits at the
	// current level. Run 0 starts at bit 0, so only its a is the
	// constant; its b is never read.
	maps := make([][]carry, k)
	for j := range maps {
		if len(cBitsList[j]) != m || len(rBitsList[j]) != m {
			return nil, fmt.Errorf("ssmpc: BitLT width mismatch in instance %d", j)
		}
		maps[j] = make([]carry, m)
		for i, r := range rBitsList[j] {
			if cBitsList[j][i] == 0 {
				maps[j][i] = carry{a: r, b: e.Sub(e.one, r)}
			} else {
				maps[j][i] = carry{b: r}
			}
		}
	}
	for w, leaves := m, true; w > 1; w, leaves = (w+1)/2, false {
		// One product list for the level: instance by instance, pair
		// (lo, hi) = runs (t, t+1) by pair.
		var xs, ys []Share
		for j := range maps {
			for t := 0; t+1 < w; t += 2 {
				lo, hi := maps[j][t], maps[j][t+1]
				switch {
				case leaves:
					xs, ys = append(xs, hi.b), append(ys, rBitsList[j][t])
				case t == 0:
					xs, ys = append(xs, hi.b), append(ys, lo.a)
				default:
					xs, ys = append(xs, hi.b, hi.b), append(ys, lo.a, lo.b)
				}
			}
		}
		prods, err := e.MulBatch(xs, ys)
		if err != nil {
			return nil, err
		}
		q := 0
		for j := range maps {
			for t := 0; t < w; t += 2 {
				if t+1 == w { // unpaired: carried up as it is
					maps[j][t/2] = maps[j][t]
					continue
				}
				hi := maps[j][t+1]
				var c carry
				switch {
				case leaves:
					// p = b_hi·r_lo is b_hi·a_lo and b_hi·b_lo at once:
					// (p, b_hi − p) where c_lo = 0, (0, p) where c_lo = 1.
					p := prods[q]
					q++
					if cBitsList[j][t] == 0 {
						c = carry{a: e.Add(hi.a, p), b: e.Sub(hi.b, p)}
					} else {
						c = carry{a: hi.a, b: p}
					}
				case t == 0:
					c = carry{a: e.Add(hi.a, prods[q])}
					q++
				default:
					c = carry{a: e.Add(hi.a, prods[q]), b: prods[q+1]}
					q += 2
				}
				maps[j][t/2] = c
			}
		}
	}
	out := make([]Share, k)
	for j := range out {
		out[j] = maps[j][0].a
	}
	return out, nil
}

// carry is the shared map lt ↦ a + b·lt of a run of bits.
type carry struct{ a, b Share }

// Mod2mBatch computes shares of x_k mod 2^m for shared values known to
// lie in [0, 2^lPrime). It is the statistically masked truncation
// protocol: open y = x + r' + 2^m·r” for jointly random bit-composed
// masks, reduce the public y, and correct the underflow with the bitwise
// less-than circuit. bits holds Kappa+lPrime shared random bits per
// instance (RandomBits), drawn by the caller so that a sort draws the
// masks of all its layers in one batch. The field prime must exceed
// 2^(lPrime+Kappa+2) so the opened values never wrap modulo p.
func (e *Engine) Mod2mBatch(xs []Share, lPrime, m int, bits []Share) ([]Share, error) {
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
	// Per instance, the low mask r' from m bits and the high mask r''
	// from the other kappa+lPrime−m.
	per := Kappa + lPrime
	if len(bits) != k*per {
		return nil, fmt.Errorf("ssmpc: Mod2m needs %d mask bits, got %d", k*per, len(bits))
	}
	rLowBits := make([][]Share, k)
	ySh := make([]Share, k)
	rLow := make([]Share, k)
	for j := 0; j < k; j++ {
		mine := bits[j*per : (j+1)*per]
		rLowBits[j] = mine[:m]
		var rl, rh Share
		for i, b := range mine[:m] {
			rl = e.Add(rl, e.scale(b, &e.pow2[i]))
		}
		rLow[j] = rl
		for i, b := range mine[m:] {
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

// MaskBits is the number of shared random bits GTEBatch consumes per
// comparison of l-bit values: the κ + l + 1 bits of its Mod2m mask.
func MaskBits(l int) int { return Kappa + l + 1 }

// GTEBatch computes shares of the bits [a_k ≥ b_k] for shared l-bit
// values: c = a − b + 2^l lies in (0, 2^(l+1)) and its l-th bit is the
// answer, extracted with Mod2mBatch from MaskBits(l) of bits per
// comparison. The whole batch costs the same number of rounds as a
// single comparison, which is what makes the layer-parallel sorting
// network of the baseline meaningful: one opening and ⌈log₂ l⌉
// multiplication rounds, after the three of the mask bits' RandomBits.
func (e *Engine) GTEBatch(as, bs []Share, l int, bits []Share) ([]Share, error) {
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
	lows, err := e.Mod2mBatch(cs, l+1, l, bits)
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
