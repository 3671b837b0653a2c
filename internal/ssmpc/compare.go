package ssmpc

import (
	"fmt"
	"math/big"

	"groupranking/internal/field"
	"groupranking/internal/fixedbig"
)

// bitLT computes shares of the bits [c_k < r_k] for a batch of
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
// ⌈log₂ m⌉ rounds, each one degree reduction across every instance. The
// products depend on m alone, never on the public c, so the traffic
// shows nothing of the opened value: ⌊m/2⌋ at the leaves (one product
// b_hi·r_lo gives both halves of a pair of bit maps), then two per pair
// above them, one where the inner map is the constant (only its a is
// needed). At m = 27 that is 5 rounds and 35 multiplications.
//
// The first round also reduces pending, degree-2d values the circuit
// does not read, and returns them at degree d; at m = 1, where the
// circuit has no round, their reduction takes a round of its own.
func (e *Engine) bitLT(cBitsList [][]uint8, rBitsList [][]Share, pending []Wide) (lts, reduced []Share, err error) {
	k := len(cBitsList)
	if k != len(rBitsList) {
		return nil, nil, fmt.Errorf("ssmpc: BitLT batch size mismatch %d vs %d", k, len(rBitsList))
	}
	if k == 0 {
		_, reduced, err := e.reduce(nil, pending)
		return nil, reduced, err
	}
	m := len(rBitsList[0])
	if m == 0 {
		return nil, nil, fmt.Errorf("ssmpc: BitLT on empty inputs")
	}
	// maps[j][t] is the map of instance j's t-th run of bits at the
	// current level. Run 0 starts at bit 0, so only its a is the
	// constant; its b is never read.
	maps := make([][]carry, k)
	for j := range maps {
		if len(cBitsList[j]) != m || len(rBitsList[j]) != m {
			return nil, nil, fmt.Errorf("ssmpc: BitLT width mismatch in instance %d", j)
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
		prods, done, err := e.reduce(e.Products(xs, ys), pending)
		if err != nil {
			return nil, nil, err
		}
		if pending != nil {
			reduced, pending = done, nil
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
	if pending != nil {
		if _, reduced, err = e.reduce(nil, pending); err != nil {
			return nil, nil, err
		}
	}
	out := make([]Share, k)
	for j := range out {
		out[j] = maps[j][0].a
	}
	return out, reduced, nil
}

// carry is the shared map lt ↦ a + b·lt of a run of bits.
type carry struct{ a, b Share }

// mod2m computes shares of x_k mod 2^m for shared values known to lie
// in [0, 2^lPrime), given at degree 2d. It is the statistically masked
// truncation protocol of Catrina and de Hoogh: open y = x + r' + 2^m·r”
// for joint random masks, reduce the public y, and correct the
// underflow with the bitwise less-than circuit, whose first round also
// reduces pending. The low mask r' is composed from m shared random bits
// per instance (bits, k·m of them), because the less-than reads its
// bits; the high mask r” is one shared integer per instance (highs),
// the sum of one uniform integer of highWidth(lPrime, m) bits from
// every party, dealt at degree 2d so that it randomises the degree-2d
// opening of y. Both come from RandomBits, drawn by the caller so that a
// sort draws the masks of all its layers in one batch, and the field
// must pass checkWidth.
func (e *Engine) mod2m(xs []Wide, lPrime, m int, bits []Share, highs, pending []Wide) (lows, reduced []Share, err error) {
	k := len(xs)
	if m <= 0 || lPrime < m {
		return nil, nil, fmt.Errorf("ssmpc: Mod2m invalid widths l'=%d m=%d", lPrime, m)
	}
	if err := e.checkWidth(lPrime, m); err != nil {
		return nil, nil, err
	}
	if len(bits) != k*m || len(highs) != k {
		return nil, nil, fmt.Errorf("ssmpc: Mod2m of %d needs %d mask bits and %d high masks, got %d and %d",
			k, k*m, k, len(bits), len(highs))
	}
	rLowBits := make([][]Share, k)
	ys := make([]field.Elem, k)
	rLow := make([]Share, k)
	for j := 0; j < k; j++ {
		rLowBits[j] = bits[j*m : (j+1)*m]
		var rl Share
		for i, b := range rLowBits[j] {
			rl = e.Add(rl, e.scale(b, &e.pow2[i]))
		}
		rLow[j] = rl
		// y = x + r' + 2^m·r''.
		e.f.Mul(&ys[j], &highs[j].y, &e.pow2[m])
		e.f.Add(&ys[j], &ys[j], &rl.y)
		e.f.Add(&ys[j], &ys[j], &xs[j].y)
	}
	var cBitsList [][]uint8
	var yLows []*big.Int
	if k > 0 {
		if ys, err = e.open(ys); err != nil {
			return nil, nil, err
		}
		// The opened y values are public integers, not shares: their
		// low bits are taken in math/big.
		mask := new(big.Int).Lsh(big.NewInt(1), uint(m))
		mask.Sub(mask, big.NewInt(1))
		yLows = make([]*big.Int, k)
		cBitsList = make([][]uint8, k)
		for j := 0; j < k; j++ {
			yLows[j] = new(big.Int).And(e.f.ToBig(&ys[j]), mask)
			if cBitsList[j], err = fixedbig.Bits(yLows[j], m); err != nil {
				return nil, nil, err
			}
		}
	}
	us, reduced, err := e.bitLT(cBitsList, rLowBits, pending)
	if err != nil {
		return nil, nil, err
	}
	// x mod 2^m = y' − r' + 2^m·[y' < r'].
	lows = make([]Share, k)
	for j := 0; j < k; j++ {
		res := e.Sub(e.ConstShare(yLows[j]), rLow[j])
		lows[j] = e.Add(res, e.scale(us[j], &e.pow2[m]))
	}
	return lows, reduced, nil
}

// MaskBits is the number of shared random bits GTEOpen consumes per
// comparison of l-bit values: the l bits of its Mod2m low mask r'. The
// high mask r” is not drawn bit by bit: it is one shared integer per
// comparison, dealt at MaskWidth(l) bits by every party in the first
// round of the same RandomBits call (the package doc says why that
// still hides the compared values to 2^−κ).
func MaskBits(l int) int { return l }

// MaskWidth is the width w of the integer each party deals towards a
// comparison's high mask: highWidth(l+1, l) = κ + 1, since a comparison
// reduces an (l+1)-bit value mod 2^l.
func MaskWidth(l int) int { return highWidth(l+1, l) }

// highWidth is the width w = κ + l' − m of the integer each party deals
// towards Mod2m's high mask r” when it reduces an l'-bit value mod 2^m:
// the κ bits of statistical hiding above the l' − m bits of x that r”
// covers.
func highWidth(lPrime, m int) int { return Kappa + lPrime - m }

// GTEBatch computes shares of the bits [a_k ≥ b_k] for shared l-bit
// values: GTEOpen of the differences at degree 2d, then GTEFinish. The
// whole batch costs the same number of rounds as a single comparison,
// which is what makes the layer-parallel sorting network of the
// baseline meaningful: one opening and ⌈log₂ l⌉ multiplication rounds,
// after the two of the masks' RandomBits.
func (e *Engine) GTEBatch(as, bs []Share, l int, bits []Share, highs []Wide) ([]Share, error) {
	if len(as) != len(bs) {
		return nil, fmt.Errorf("ssmpc: GTE batch size mismatch %d vs %d", len(as), len(bs))
	}
	ds := make([]Share, len(as))
	wide := make([]Wide, len(as))
	for j := range ds {
		ds[j] = e.Sub(as[j], bs[j])
		wide[j] = e.Widen(ds[j])
	}
	lows, _, err := e.GTEOpen(wide, l, bits, highs, nil)
	if err != nil {
		return nil, err
	}
	return e.GTEFinish(ds, lows, l), nil
}

// GTEOpen is the first part of a batch of comparisons [a_k ≥ b_k] of
// shared l-bit values, given by their differences d = a − b at degree
// 2d: c = d + 2^l lies in (0, 2^(l+1)) and its l-th bit is the answer.
// It returns c mod 2^l (Mod2m, from MaskBits(l) bits and one high mask
// of width MaskWidth(l) per comparison) for GTEFinish. The first round
// of its less-than also reduces pending, which it does not read, and
// returns it at degree d: a sort's products of the layer before.
func (e *Engine) GTEOpen(ds []Wide, l int, bits []Share, highs, pending []Wide) (lows, reduced []Share, err error) {
	if l <= 0 {
		return nil, nil, fmt.Errorf("ssmpc: GTE needs positive width, got %d", l)
	}
	if err := e.checkWidth(l+1, l); err != nil {
		return nil, nil, err
	}
	cs := make([]Wide, len(ds))
	for j := range cs {
		cs[j] = e.AddWide(ds[j], Wide{y: e.pow2[l]})
	}
	return e.mod2m(cs, l+1, l, bits, highs, pending)
}

// GTEFinish returns the comparison bits from the differences d = a − b
// GTEOpen was given, now at degree d, and the lows it returned:
// [a ≥ b] = (c − (c mod 2^l))/2^l with c = d + 2^l (local).
func (e *Engine) GTEFinish(ds, lows []Share, l int) []Share {
	out := make([]Share, len(ds))
	for j := range out {
		c := e.Add(ds[j], Share{y: e.pow2[l]})
		out[j] = e.scale(e.Sub(c, lows[j]), &e.invPow2[l])
	}
	return out
}

// CheckWidth reports whether a field of prime p carries the
// comparisons of l-bit values among n parties: the rule checkWidth
// applies at every comparison, for a caller to apply before any round
// runs. Its refusal names n and the most parties p carries.
func CheckWidth(n int, p *big.Int, l int) error {
	return widthError(n, p, l+1, l)
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
	return widthError(e.cfg.N, e.cfg.P, lPrime, m)
}

func widthError(n int, p *big.Int, lPrime, m int) error {
	if max := maxOpening(n, lPrime, m); p.Cmp(max) <= 0 {
		return fmt.Errorf("ssmpc: field too small for Mod2m among n = %d parties: "+
			"a %d-bit value masked for mod 2^%d opens up to %d bits, the prime has %d and carries at most %d parties",
			n, lPrime, m, max.BitLen(), p.BitLen(), maxParties(p, lPrime, m))
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

// maxParties is the largest n for which p exceeds maxOpening(n, l', m),
// or 0 if there is none. The bound grows by the same step with every
// party, so n is the prime's headroom above the bound at n = 0 divided
// by that step. widthError calls it only for a p that does not carry
// its n, so the result is below that n.
func maxParties(p *big.Int, lPrime, m int) int {
	base := maxOpening(0, lPrime, m)
	step := new(big.Int).Sub(maxOpening(1, lPrime, m), base)
	room := new(big.Int).Sub(p, base)
	if room.Sign() <= 0 {
		return 0
	}
	room.Sub(room, big.NewInt(1))
	return int(room.Quo(room, step).Int64())
}
