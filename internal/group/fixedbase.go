package group

import (
	"math/big"
	"sync"
)

// Fixed-base precomputation: a windowed table for a base that never
// changes within a run. The two such bases in the protocol are the
// group generator g (every ExpGen: key generation, bitwise encryption
// C1 components, proof commitments, exponent encodings) and the joint
// public key y (the y^r mask of every encryption and re-randomisation).
// A radix-2^w table stores base^(d·2^(i·w)) for every window i and
// digit d, turning one exponentiation into at most ⌈l/w⌉ group
// operations with no doublings at all — the classic fixed-base comb.
//
// Counting contract: tables are built and evaluated on the RAW group
// (see Raw), never through the obsv counting wrapper, so a table lookup
// performs zero counted operations by itself. Callers that substitute a
// table evaluation for a Group.Exp call are responsible for keeping the
// observability census identical — either the call still flows through
// the wrapper's Exp (the per-group generator fast path below Exp's
// counting layer), or the caller charges one OpGroupExp manually
// (elgamal.Scheme.WithPrecomp). This is what keeps the cost model's
// closed forms exact under precomputation.

// Unwrapper is implemented by instrumentation wrappers (obsv's counting
// group) that decorate a Group while delegating its arithmetic.
type Unwrapper interface {
	// Underlying returns the wrapped group.
	Underlying() Group
}

// Raw strips every instrumentation wrapper and returns the concrete
// group. Table internals must use it: arithmetic performed while
// building or evaluating a precomputed table is not a protocol
// operation and must not be charged to any party.
func Raw(g Group) Group {
	for {
		u, ok := g.(Unwrapper)
		if !ok {
			return g
		}
		g = u.Underlying()
	}
}

// Window widths. EC combs pay one mixed addition (~11 limb-field
// multiplications) per window, so a narrow window keeps the table small
// at no real cost; DL combs pay a full big.Int modular multiplication
// per window, so a wider window amortises better against math/big's
// Montgomery exponentiation.
const (
	ecCombWindow = 5
	dlCombWindow = 6
)

// FixedBaseTable is a precomputed fixed-base exponentiation table. It
// is safe for concurrent use once built (all state is read-only after
// construction).
type FixedBaseTable struct {
	g    Group // raw group, for Equal/Identity and order reduction
	base Element
	eval func(e *big.Int) Element // e already reduced mod order, e > 0
	comb *kernelComb              // on a kernel curve: eval's comb, for the batches of circuit.go
}

// NewFixedBaseTable precomputes powers of base in g. The group may be
// wrapped (obsv counting); the table always operates on the raw group.
func NewFixedBaseTable(g Group, base Element) *FixedBaseTable {
	raw := Raw(g)
	t := &FixedBaseTable{g: raw, base: base}
	switch cg := raw.(type) {
	case *DLGroup:
		t.eval = newDLComb(cg, base, dlCombWindow)
	case *ECGroup:
		t.comb = newKernelComb(cg, base, ecCombWindow)
		t.eval = t.comb.exp
	default:
		// A group without a native comb: the table is its own Exp.
		t.eval = func(e *big.Int) Element { return raw.Exp(base, e) }
	}
	return t
}

// Base returns the element the table was built for.
func (t *FixedBaseTable) Base() Element { return t.base }

// Exp returns base^k. Negative and over-order exponents are reduced
// exactly as Group.Exp does.
func (t *FixedBaseTable) Exp(k *big.Int) Element {
	e := new(big.Int).Mod(k, t.g.Order())
	if e.Sign() == 0 {
		return t.g.Identity()
	}
	return t.eval(e)
}

// combDigits splits e (already reduced, positive) into base-2^w digits,
// little-endian.
func combDigits(e *big.Int, w uint) []uint {
	bits := e.BitLen()
	digits := make([]uint, (bits+int(w)-1)/int(w))
	for i := range digits {
		var d uint
		for b := 0; b < int(w); b++ {
			d |= e.Bit(i*int(w)+b) << b
		}
		digits[i] = d
	}
	return digits
}

// newDLComb builds windows[i][d-1] = base^(d·2^(i·w)) as residues.
func newDLComb(g *DLGroup, base Element, w uint) func(*big.Int) Element {
	b := new(big.Int).Set(g.unwrap(base))
	nWin := (g.q.BitLen() + int(w) - 1) / int(w)
	size := (1 << w) - 1
	windows := make([][]*big.Int, nWin)
	for i := 0; i < nWin; i++ {
		windows[i] = make([]*big.Int, size)
		windows[i][0] = new(big.Int).Set(b)
		for d := 1; d < size; d++ {
			v := new(big.Int).Mul(windows[i][d-1], b)
			windows[i][d] = v.Mod(v, g.p)
		}
		// Next window's base is b^(2^w).
		b = new(big.Int).Mul(windows[i][size-1], b)
		b.Mod(b, g.p)
	}
	return func(e *big.Int) Element {
		acc := big.NewInt(1)
		for i, d := range combDigits(e, w) {
			if d == 0 {
				continue
			}
			acc.Mul(acc, windows[i][d-1])
			acc.Mod(acc, g.p)
		}
		return dlElement{g, acc}
	}
}

// genTables caches one generator table per concrete group value, so
// every ExpGen — and any Exp whose base turns out to be the generator —
// hits the comb. The named groups are process-wide singletons
// (the curves of curves.go, the MODP vars, ToyDL256), so each table is built exactly
// once per process.
var genTables sync.Map // map[Group]*FixedBaseTable

// generatorTable returns the cached fixed-base table for g's generator,
// building it on first use. Concrete groups are pointers, hence
// comparable, which is all sync.Map needs.
func generatorTable(g Group) *FixedBaseTable {
	raw := Raw(g)
	if t, ok := genTables.Load(raw); ok {
		return t.(*FixedBaseTable)
	}
	t, _ := genTables.LoadOrStore(raw, NewFixedBaseTable(raw, raw.Generator()))
	return t.(*FixedBaseTable)
}
