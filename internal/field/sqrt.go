package field

import "math/big"

// Square roots, the one implementation both stacks use: the curve
// kernel decompresses every received point with it, and the
// secret-sharing stack draws its random-bit roots with it. The method
// follows p mod 8, read once in New: one exponentiation when p ≡ 3
// (mod 4) (secp160r1, P-256) or p ≡ 5 (mod 8), Tonelli–Shanks on
// p − 1 = s·2^e otherwise (P-224, e = 96).

// sqrtConsts derives the square-root constants of an odd prime p:
// (p+1)/4, (p−5)/8 or (s−1)/2 by p mod 8, and for p ≡ 1 (mod 8) e and
// c = n^s for the smallest non-residue n. The search stops at 2^16,
// beyond the least non-residue of every prime of at most 256 bits
// (below 2·ln²p under the extended Riemann hypothesis), so an odd
// modulus that is not prime cannot hold New up; its Sqrt refuses
// whatever has no root it can verify.
func (f *Field) sqrtConsts() {
	p := f.p
	e := new(big.Int)
	switch f.pl[0] & 7 {
	case 3, 7:
		e.Rsh(e.Add(p, big.NewInt(1)), 2)
	case 5:
		e.Rsh(e.Sub(p, big.NewInt(5)), 3)
	default:
		s := new(big.Int).Sub(p, big.NewInt(1))
		f.tsE = int(s.TrailingZeroBits())
		s.Rsh(s, uint(f.tsE))
		sl := Limbs(s)
		// A non-residue n: n^((p−1)/2) = −1, i.e. (n^s)^(2^(e−1)) ≠ 1.
		for n := int64(2); n < 1<<16; n++ {
			c := f.Reduce(big.NewInt(n))
			f.exp(&c, &c, &sl)
			t := c
			for i := 1; i < f.tsE; i++ {
				f.Sqr(&t, &t)
			}
			if t != f.one {
				f.tsC = c
				break
			}
		}
		e.Rsh(s.Sub(s, big.NewInt(1)), 1)
	}
	f.sqrtExp = Limbs(e)
}

// exp sets z = x^e for a plain integer exponent in little-endian limbs,
// by left-to-right square-and-multiply. z may alias x.
func (f *Field) exp(z, x *Elem, e *[4]uint64) {
	base, acc := *x, f.one
	started := false
	for i := 3; i >= 0; i-- {
		for bit := 63; bit >= 0; bit-- {
			if started {
				f.Sqr(&acc, &acc)
			}
			if e[i]>>uint(bit)&1 != 0 {
				f.Mul(&acc, &acc, &base)
				started = true
			}
		}
	}
	*z = acc
}

// Sqrt sets z to the square root of x that is the smaller of the two as
// an integer, min(w, p−w), so every party picks the same one, and
// reports whether x is a square. z is untouched when it is not.
func (f *Field) Sqrt(z, x *Elem) bool {
	var w Elem
	switch f.pl[0] & 7 {
	case 3, 7:
		f.exp(&w, x, &f.sqrtExp) // x^((p+1)/4)
	case 5:
		// Atkin: b = (2x)^((p−5)/8), i = 2x·b², w = x·b·(i−1).
		var x2, b, i Elem
		f.Add(&x2, x, x)
		f.exp(&b, &x2, &f.sqrtExp)
		f.Sqr(&i, &b)
		f.Mul(&i, &i, &x2)
		f.Sub(&i, &i, &f.one)
		f.Mul(&w, x, &b)
		f.Mul(&w, &w, &i)
	default:
		if !f.tonelliShanks(&w, x) {
			return false
		}
	}
	var sq Elem
	f.Sqr(&sq, &w)
	if sq != *x {
		return false
	}
	var other Elem
	f.Neg(&other, &w)
	if pw, po := f.Plain(&w), f.Plain(&other); po.Less(&pw) {
		w = other
	}
	*z = w
	return true
}

// tonelliShanks finds a root of x when p ≡ 1 (mod 8), with p−1 = s·2^e
// and c = n^s for a non-residue n. It reports false when it can tell x
// is a non-residue; the caller squares the result to be sure.
func (f *Field) tonelliShanks(w, x *Elem) bool {
	var t, r, b Elem
	f.exp(&t, x, &f.sqrtExp) // x^((s−1)/2)
	f.Mul(&r, x, &t)         // x^((s+1)/2)
	f.Mul(&b, &r, &t)        // x^s
	g, e := f.tsC, f.tsE
	for b != f.one && !b.IsZero() {
		// The least m with b^(2^m) = 1; m = e means x is a non-residue.
		m, sq := 0, b
		for sq != f.one {
			f.Sqr(&sq, &sq)
			if m++; m == e {
				return false
			}
		}
		gs := g
		for i := 0; i < e-m-1; i++ {
			f.Sqr(&gs, &gs)
		}
		f.Sqr(&g, &gs)
		f.Mul(&r, &r, &gs)
		f.Mul(&b, &b, &g)
		e = m
	}
	*w = r
	return true
}
