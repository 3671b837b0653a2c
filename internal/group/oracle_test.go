package group

import "math/big"

// refCurve is the math/big reference the curve kernel is tested
// against: the same curve, with Op and Exp recomputed from the textbook
// affine formulas (one ModInverse per addition or doubling) and an
// MSB-first double-and-add ladder. It shares no recoding, table or limb
// code with the kernel. Everything else (name, encoding, decoding,
// negation) is the embedded group's. Raw does not see through it, so
// MultiExp and NewFixedBaseTable treat it as a group of their own and
// compose its Exp and Op.
type refCurve struct{ *ECGroup }

// oracleOf returns g's reference curve.
func oracleOf(g *ECGroup) refCurve { return refCurve{g} }

// point unwraps e with its coordinates reduced modulo p.
func (c refCurve) point(e Element) ecPoint {
	pt := c.unwrap(e)
	if pt.inf {
		return pt
	}
	return ecPoint{x: new(big.Int).Mod(pt.x, c.p), y: new(big.Int).Mod(pt.y, c.p)}
}

// add returns a + b for reduced affine points.
func (c refCurve) add(a, b ecPoint) ecPoint {
	switch {
	case a.inf:
		return b
	case b.inf:
		return a
	}
	var num, den *big.Int
	if a.x.Cmp(b.x) == 0 {
		if new(big.Int).Add(a.y, b.y).Cmp(c.p) == 0 || a.y.Sign() == 0 {
			return ecPoint{inf: true} // b = −a
		}
		// Doubling: λ = (3x² + a) / 2y.
		num = new(big.Int).Mul(a.x, a.x)
		num.Mul(num, big.NewInt(3)).Add(num, c.a)
		den = new(big.Int).Lsh(a.y, 1)
	} else {
		// Addition: λ = (y₂ − y₁) / (x₂ − x₁).
		num = new(big.Int).Sub(b.y, a.y)
		den = new(big.Int).Sub(b.x, a.x)
	}
	den.Mod(den, c.p).ModInverse(den, c.p)
	lambda := num.Mul(num, den)
	lambda.Mod(lambda, c.p)
	x := new(big.Int).Mul(lambda, lambda)
	x.Sub(x, a.x).Sub(x, b.x).Mod(x, c.p)
	y := new(big.Int).Sub(a.x, x)
	y.Mul(y, lambda).Sub(y, a.y).Mod(y, c.p)
	return ecPoint{x: x, y: y}
}

// Op implements Group.
func (c refCurve) Op(a, b Element) Element { return c.add(c.point(a), c.point(b)) }

// Exp implements Group: k reduced modulo n (a negative k included),
// then one doubling per bit from the top and one addition per set bit.
func (c refCurve) Exp(a Element, k *big.Int) Element {
	e := new(big.Int).Mod(k, c.n)
	base, acc := c.point(a), ecPoint{inf: true}
	for i := e.BitLen() - 1; i >= 0; i-- {
		acc = c.add(acc, acc)
		if e.Bit(i) == 1 {
			acc = c.add(acc, base)
		}
	}
	return acc
}
