package group

import "groupranking/internal/field"

// The fold formulas: double, addAffine and addJac once more, for a curve
// whose field has the fold body (secp160r1), on field.Fold's arithmetic.
// Each is its generic formula in kernel.go operation for operation, so
// both give the same coordinates; only the arithmetic differs. A
// field.FoldElem is a three-limb value, so an add or a subtract inlines
// here and runs in registers, and a multiply or a square is one call
// straight into the fold's body, with no body switch, no width branch
// and no fourth limb. newCurveKernel picks them once, from the field's
// body; `make vet` fails if a Fold.Add or Fold.Sub in this file stops
// inlining.

// doubleFold is double on the fold (4M + 4S).
func (k *curveKernel) doubleFold(r, p *jacPt) {
	f := *k.fold
	x, y, z := f.Load(&p.x), f.Load(&p.y), f.Load(&p.z)
	z2 := f.Sqr(z)
	m := f.Mul(f.Sub(x, z2), f.Add(x, z2))
	m = f.Add(f.Add(m, m), m)
	t := f.Sqr(y)
	t = f.Add(t, t) // T = 2Y²
	s := f.Mul(x, t)
	s = f.Add(s, s) // S = 2XT
	x3 := f.Sqr(m)
	x3 = f.Sub(x3, s)
	x3 = f.Sub(x3, s)
	t = f.Sqr(t)
	t = f.Add(t, t) // 8Y⁴ = 2T²
	y3 := f.Mul(m, f.Sub(s, x3))
	y3 = f.Sub(y3, t)
	z3 := f.Mul(y, z)
	z3 = f.Add(z3, z3)
	*r = jacPt{x3.Elem(), y3.Elem(), z3.Elem()}
}

// addJacFold is addJac on the fold for p and q not the identity.
func (k *curveKernel) addJacFold(r, p, q *jacPt) {
	f := *k.fold
	z1, z2 := f.Load(&p.z), f.Load(&q.z)
	z1z1, z2z2 := f.Sqr(z1), f.Sqr(z2)
	u1 := f.Mul(f.Load(&p.x), z2z2)
	u2 := f.Mul(f.Load(&q.x), z1z1)
	s1 := f.Mul(f.Mul(f.Load(&p.y), z2), z2z2)
	s2 := f.Mul(f.Mul(f.Load(&q.y), z1), z1z1)
	k.addTailFold(r, p, u1, s1, u2, s2, f.Mul(z1, z2))
}

// addAffineFold is addAffine on the fold for p and q not the identity.
func (k *curveKernel) addAffineFold(r, p *jacPt, q *affPt) {
	f := *k.fold
	z := f.Load(&p.z)
	z1z1 := f.Sqr(z)
	u2 := f.Mul(f.Load(&q.x), z1z1)
	s2 := f.Mul(f.Mul(f.Load(&q.y), z), z1z1)
	k.addTailFold(r, p, f.Load(&p.x), f.Load(&p.y), u2, s2, z)
}

// addTailFold is addTail on the fold.
func (k *curveKernel) addTailFold(r, p *jacPt, u1, s1, u2, s2, zz field.FoldElem) {
	f := *k.fold
	h := f.Sub(u2, u1)
	rr := f.Sub(s2, s1)
	if h.IsZero() {
		if rr.IsZero() {
			k.doubleFold(r, p)
		} else {
			*r = jacPt{}
		}
		return
	}
	h2 := f.Sqr(h)
	h3 := f.Mul(h2, h)
	v := f.Mul(u1, h2)
	x3 := f.Sqr(rr)
	x3 = f.Sub(x3, h3)
	x3 = f.Sub(x3, v)
	x3 = f.Sub(x3, v)
	y3 := f.Mul(rr, f.Sub(v, x3))
	y3 = f.Sub(y3, f.Mul(s1, h3))
	z3 := f.Mul(h, zz)
	*r = jacPt{x3.Elem(), y3.Elem(), z3.Elem()}
}
