package group

import "math/big"

// Multi-scalar exponentiation: a batch of products Π base^exp evaluated
// together. On the limb kernel a product of several powers runs one
// shared doubling chain (Straus' interleaved wNAF), every base of the
// batch gets one table of odd multiples however many products name it,
// and the whole batch pays two field inversions — one to make the
// tables affine, one to project the results — where a composition of
// Exp and Op pays one per call. The protocol's chain hop, the blinding
// of a ciphertext's two components and the double exponentiations of
// proof verification all come through here.
//
// Counting contract (the FixedBaseTable one): MultiExp evaluates on the
// RAW group and performs no counted operation. A caller substituting it
// for Exp/Op calls charges the logical operations it stands for.

// Term is one factor bases[Base]^Exp of a MultiExp product.
type Term struct {
	Base int      // index into the call's bases
	Exp  *big.Int // any integer, as Group.Exp takes it
}

// MultiExp returns, for every product of the batch, Π bases[t.Base]^t.Exp
// over its terms (the identity for an empty product). The elements are
// the ones Exp and Op would compose: groups other than the curves
// compute exactly that composition.
func MultiExp(g Group, bases []Element, products [][]Term) []Element {
	raw := Raw(g)
	if ec, ok := raw.(*ECGroup); ok {
		return ec.kern.multiExp(ec, bases, products)
	}
	out := make([]Element, len(products))
	for i, prod := range products {
		out[i] = raw.Identity()
		for j, t := range prod {
			if f := raw.Exp(bases[t.Base], t.Exp); j == 0 {
				out[i] = f
			} else {
				out[i] = raw.Op(out[i], f)
			}
		}
	}
	return out
}

// MultiExpBatches reports whether MultiExp shares work across a batch on
// g (a curve: the kernel's tables and inversions) or composes every
// product on its own. A caller splitting work across workers batches
// only where a batch buys something.
func MultiExpBatches(g Group) bool {
	_, ok := Raw(g).(*ECGroup)
	return ok
}

// tableSize is the number of odd multiples 1P, 3P, …, 15P a width-5 wNAF
// looks up.
const tableSize = 1 << (wnafWidth - 2)

// oddMultiples fills tab with 1P, 3P, … in Jacobian form. An identity
// base fills it with identities.
func (k *curveKernel) oddMultiples(tab []jacPt, base *affPt) {
	tab[0] = k.toJac(base)
	if len(tab) == 1 {
		return
	}
	var twice jacPt
	k.double(&twice, &tab[0])
	k.addAffine(&tab[1], &twice, base)
	for i := 2; i < len(tab); i++ {
		k.addJac(&tab[i], &tab[i-1], &twice)
	}
}

// scalarLimbs returns |e| mod n as limbs, and whether e is negative:
// e·P = ±(|e| mod n)·P, so a short negative scalar stays short where
// reducing e itself would stretch it to the width of n.
func scalarLimbs(e, n *big.Int) (fe, bool) {
	neg := e.Sign() < 0
	if e.CmpAbs(n) >= 0 {
		e = new(big.Int).Mod(new(big.Int).Abs(e), n)
	}
	return limbsFromBig(e), neg // FillBytes reads the absolute value
}

// recodedTerm is one term of a product ready for the Straus loop.
type recodedTerm struct {
	digits [257]int8
	n      int     // digits in use
	neg    bool    // the scalar was negative: every digit changes sign
	tab    []affPt // the base's odd multiples
}

// multiExp is MultiExp on the kernel.
func (k *curveKernel) multiExp(g *ECGroup, bases []Element, products [][]Term) []Element {
	jac := make([]jacPt, len(bases)*tableSize)
	for i, b := range bases {
		base := k.lift(g.unwrap(b))
		k.oddMultiples(jac[i*tableSize:(i+1)*tableSize], &base)
	}
	tabs := k.normalise(jac)

	widest := 0
	for _, prod := range products {
		widest = max(widest, len(prod))
	}
	terms := make([]recodedTerm, widest)
	acc := make([]jacPt, len(products))
	for i, prod := range products {
		for j, t := range prod {
			rt := &terms[j]
			e, neg := scalarLimbs(t.Exp, g.n)
			rt.digits = [257]int8{}
			rt.neg, rt.n = neg, wnafRecode(&rt.digits, &e)
			rt.tab = tabs[t.Base*tableSize : (t.Base+1)*tableSize]
		}
		k.straus(&acc[i], terms[:len(prod)])
	}

	out := make([]Element, len(products))
	for i, a := range k.normalise(acc) {
		out[i] = k.element(&a)
	}
	return out
}

// straus sets r = Σ eᵢ·Pᵢ over the recoded terms: one doubling per digit
// position of the longest scalar, shared by every term, and one mixed
// addition per non-zero digit of each.
func (k *curveKernel) straus(r *jacPt, terms []recodedTerm) {
	top := 0
	for i := range terms {
		top = max(top, terms[i].n)
	}
	*r = jacPt{}
	for i := top - 1; i >= 0; i-- {
		k.double(r, r)
		for j := range terms {
			t := &terms[j]
			d := t.digits[i]
			if d == 0 {
				continue
			}
			minus := d < 0
			if minus {
				d = -d
			}
			pt := t.tab[d>>1]
			if minus != t.neg {
				k.neg(&pt.y, &pt.y)
			}
			k.addAffine(r, r, &pt)
		}
	}
}
