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
// protocol of Catrina and de Hoogh: open y = x + r' + 2^m·r” for joint
// random masks, reduce the public y, and correct the underflow with the
// bitwise less-than circuit. The low mask r' is composed from m shared
// random bits per instance (bits, k·m of them), because the less-than
// reads its bits; the high mask r” is one shared integer per instance
// (highs), the sum of one uniform integer of highWidth(lPrime, m) bits
// from every party. Both come from RandomBits, drawn by the caller so
// that a sort draws the masks of all its layers in one batch, and the
// field must pass checkWidth.
func (e *Engine) Mod2mBatch(xs []Share, lPrime, m int, bits, highs []Share) ([]Share, error) {
	k := len(xs)
	if k == 0 {
		return nil, nil
	}
	if m <= 0 || lPrime < m {
		return nil, fmt.Errorf("ssmpc: Mod2m invalid widths l'=%d m=%d", lPrime, m)
	}
	if err := e.checkWidth(lPrime, m); err != nil {
		return nil, err
	}
	if len(bits) != k*m || len(highs) != k {
		return nil, fmt.Errorf("ssmpc: Mod2m of %d needs %d mask bits and %d high masks, got %d and %d",
			k, k*m, k, len(bits), len(highs))
	}
	rLowBits := make([][]Share, k)
	ySh := make([]Share, k)
	rLow := make([]Share, k)
	for j := 0; j < k; j++ {
		rLowBits[j] = bits[j*m : (j+1)*m]
		var rl Share
		for i, b := range rLowBits[j] {
			rl = e.Add(rl, e.scale(b, &e.pow2[i]))
		}
		rLow[j] = rl
		// y = x + r' + 2^m·r''.
		ySh[j] = e.Add(xs[j], e.Add(rl, e.scale(highs[j], &e.pow2[m])))
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
// comparison of l-bit values: the l bits of its Mod2m low mask r'. The
// high mask r” is not drawn bit by bit: it is one shared integer per
// comparison, dealt at MaskWidth(l) bits by every party in the first
// round of the same RandomBits call (the package doc says why that
// still hides the compared values to 2^−κ).
func MaskBits(l int) int { return l }

// MaskWidth is the width w of the integer each party deals towards a
// comparison's high mask: highWidth(l+1, l) = κ + 1, since GTEBatch
// reduces an (l+1)-bit value mod 2^l.
func MaskWidth(l int) int { return highWidth(l+1, l) }

// highWidth is the width w = κ + l' − m of the integer each party deals
// towards Mod2m's high mask r” when it reduces an l'-bit value mod 2^m:
// the κ bits of statistical hiding above the l' − m bits of x that r”
// covers.
func highWidth(lPrime, m int) int { return Kappa + lPrime - m }

// GTEBatch computes shares of the bits [a_k ≥ b_k] for shared l-bit
// values: c = a − b + 2^l lies in (0, 2^(l+1)) and its l-th bit is the
// answer, extracted with Mod2mBatch from MaskBits(l) bits and one high
// mask of width MaskWidth(l) per comparison. The whole batch costs the
// same number of rounds as a single comparison, which is what makes the
// layer-parallel sorting network of the baseline meaningful: one
// opening and ⌈log₂ l⌉ multiplication rounds, after the three of the
// masks' RandomBits.
func (e *Engine) GTEBatch(as, bs []Share, l int, bits, highs []Share) ([]Share, error) {
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
	if err := e.checkWidth(l+1, l); err != nil {
		return nil, err
	}
	cs := make([]Share, k)
	for j := 0; j < k; j++ {
		cs[j] = e.Add(e.Sub(as[j], bs[j]), Share{y: e.pow2[l]})
	}
	lows, err := e.Mod2mBatch(cs, l+1, l, bits, highs)
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

// checkWidth reports whether the field can carry Mod2m's opening of an
// lPrime-bit value reduced mod 2^m without wrapping modulo p. The
// largest value that opening can take is
//
//	(2^l' − 1) + (2^m − 1) + 2^m·n·(2^w − 1),  w = highWidth(l', m):
//
// x, r' and the n dealt integers of r” all at their maxima. The prime
// must exceed it, which also keeps every index into the pow2 tables
// below the field width.
func (e *Engine) checkWidth(lPrime, m int) error {
	if max := maxOpening(e.cfg.N, lPrime, m); e.cfg.P.Cmp(max) <= 0 {
		return fmt.Errorf("ssmpc: field too small for Mod2m among n = %d parties: "+
			"a %d-bit value masked for mod 2^%d opens up to %d bits, the prime has %d",
			e.cfg.N, lPrime, m, max.BitLen(), e.cfg.P.BitLen())
	}
	return nil
}

// maxOpening is the largest y = x + r' + 2^m·r” Mod2m can open among n
// parties, each dealing at most 2^w − 1 towards r”.
func maxOpening(n, lPrime, m int) *big.Int {
	one := big.NewInt(1)
	pow := func(i int) *big.Int { return new(big.Int).Lsh(one, uint(i)) }
	high := new(big.Int).Sub(pow(highWidth(lPrime, m)), one)
	high.Mul(high, big.NewInt(int64(n)))
	high.Lsh(high, uint(m))
	y := new(big.Int).Add(pow(lPrime), pow(m))
	y.Sub(y, big.NewInt(2))
	return y.Add(y, high)
}
