package group

import (
	"errors"
	"math/big"
	"testing"

	"groupranking/internal/field"
	"groupranking/internal/fixedbig"
)

// kernelCurves returns the three named curves, all kernel-backed.
func kernelCurves() []*ECGroup {
	return []*ECGroup{Secp160r1(), _secp224r1(), Secp256r1()}
}

// checkExpAgainstGeneric holds the kernel to the oracle on base^k and on
// the Op cases that hit addition's special branches.
func checkExpAgainstGeneric(t testing.TB, g *ECGroup, oracle refCurve, base Element, k *big.Int) {
	t.Helper()
	got, want := g.Exp(base, k), oracle.Exp(base, k)
	if !oracle.Equal(got, want) {
		t.Fatalf("%s: Exp(%v, %s): kernel %v, math/big %v", g.name, base, k, got, want)
	}
	for _, pair := range [][2]Element{
		{base, got},         // generic addition
		{got, got},          // P + P takes the doubling branch
		{got, g.Inv(got)},   // P + (−P) = ∞
		{got, g.Identity()}, // neutral element on either side or both: lower
		{g.Identity(), got}, // returns a Z = 1 sum without an inversion
		{g.Identity(), g.Identity()},
	} {
		if a, b := g.Op(pair[0], pair[1]), oracle.Op(pair[0], pair[1]); !oracle.Equal(a, b) {
			t.Fatalf("%s: Op(%v, %v): kernel %v, math/big %v", g.name, pair[0], pair[1], a, b)
		}
	}
	if !g.IsIdentity(g.Op(got, g.Inv(got))) {
		t.Fatalf("%s: P + (−P) is not the identity", g.name)
	}
	if !oracle.Equal(g.Op(got, got), g.Exp(got, big.NewInt(2))) {
		t.Fatalf("%s: P + P ≠ 2·P", g.name)
	}
}

// checkMultiExpAgainstGeneric holds the kernel's MultiExp to the
// reference curve's composition of Exp and Op on the two shapes the protocol
// evaluates: the chain hop (c^r·c1^(−x·r mod n), c1^r), two products
// sharing c1's table and r's recoding, and a bare double exponentiation
// c^r·c1^x with both scalars taken as given (signed, over the order).
// kc and kc1 are what the kernel is handed for c and c1: the same
// points, possibly with unreduced coordinates.
func checkMultiExpAgainstGeneric(t testing.TB, g *ECGroup, oracle refCurve, kc, kc1, c, c1 Element, r, x *big.Int) {
	t.Helper()
	s := new(big.Int).Mul(x, r)
	s.Neg(s).Mod(s, g.n)
	products := [][]Term{
		{{0, r}, {1, s}},
		{{1, r}},
		{{0, r}, {1, x}},
		{},
	}
	got := MultiExp(g, []Element{kc, kc1}, products)
	want := MultiExp(oracle, []Element{c, c1}, products)
	for i := range want {
		if !oracle.Equal(got[i], want[i]) {
			t.Fatalf("%s: MultiExp product %d of c=%v c1=%v r=%s x=%s: kernel %v, math/big %v",
				g.name, i, c, c1, r, x, got[i], want[i])
		}
	}
	// The hop identity itself: strip with x, then blind with r.
	stripped := oracle.Op(c, oracle.Inv(oracle.Exp(c1, x)))
	if !oracle.Equal(got[0], oracle.Exp(stripped, r)) {
		t.Fatalf("%s: fused hop of c=%v c1=%v r=%s x=%s is not (c·c1^−x)^r", g.name, c, c1, r, x)
	}
}

// unreduced returns pt with its coordinates shifted by multiples of p,
// as a hostile peer could send them before Validate rejects them.
func unreduced(g *ECGroup, e Element) Element {
	pt := e.(ecPoint)
	if pt.inf {
		return pt
	}
	wide := new(big.Int).Lsh(g.p, 300)
	return ecPoint{x: new(big.Int).Add(pt.x, g.p), y: new(big.Int).Add(pt.y, wide)}
}

// hopPair picks the (c, c1) of a MultiExp check: an unrelated pair, the
// pairs whose shared chain meets addition's doubling (c = c1) and
// infinity (c = −c1) branches, and identities on either or both sides.
func hopPair(g *ECGroup, sel uint8, a, b Element) (c, c1 Element) {
	switch sel % 6 {
	case 0:
		return a, b
	case 1:
		return b, b
	case 2:
		return g.Inv(b), b
	case 3:
		return g.Identity(), b
	case 4:
		return a, g.Identity()
	default:
		return g.Identity(), g.Identity()
	}
}

func TestMultiExpMatchesGeneric(t *testing.T) {
	for _, g := range kernelCurves() {
		oracle := oracleOf(g)
		rng := fixedbig.NewDRBG("multiexp-vs-generic-" + g.name)
		a := g.Exp(g.Generator(), mustScalar(t, g, rng))
		b := g.Exp(g.Generator(), mustScalar(t, g, rng))
		scalars := append(edgeScalars(g.n), big.NewInt(1<<40), mustScalar(t, g, rng), mustScalar(t, g, rng))
		for sel := uint8(0); sel < 6; sel++ {
			c, c1 := hopPair(g, sel, a, b)
			for i, r := range scalars {
				// Each edge scalar against a different one per pair shape.
				x := scalars[(i+int(sel)+1)%len(scalars)]
				checkMultiExpAgainstGeneric(t, g, oracle, c, c1, c, c1, r, x)
			}
			r, x := mustScalar(t, g, rng), mustScalar(t, g, rng)
			checkMultiExpAgainstGeneric(t, g, oracle, unreduced(g, c), unreduced(g, c1), c, c1, r, x)
		}
	}
}

// TestMultiExpFallbackComposes pins the other side of the dispatch: a
// group other than the curves (a DL group, the reference curve) gets
// exactly its own Exp/Op composition.
func TestMultiExpFallbackComposes(t *testing.T) {
	for _, g := range []Group{ToyDL256(), oracleOf(Secp160r1())} {
		rng := fixedbig.NewDRBG("multiexp-fallback-" + g.Name())
		a, b := ExpGen(g, mustScalar(t, g, rng)), ExpGen(g, mustScalar(t, g, rng))
		r, s := mustScalar(t, g, rng), big.NewInt(-7)
		got := MultiExp(g, []Element{a, b}, [][]Term{{{0, r}, {1, s}}, {{1, r}}, {}})
		want := []Element{g.Op(g.Exp(a, r), g.Exp(b, s)), g.Exp(b, r), g.Identity()}
		for i := range want {
			if !g.Equal(got[i], want[i]) {
				t.Errorf("%s: product %d differs from the composition", g.Name(), i)
			}
		}
	}
}

// edgeScalars are the exponents where reduction, recoding and the comb
// change behaviour.
func edgeScalars(n *big.Int) []*big.Int {
	out := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(-1), big.NewInt(-3)}
	for _, d := range []int64{-1, 0, 1} {
		out = append(out, new(big.Int).Add(n, big.NewInt(d)))
	}
	return append(out,
		new(big.Int).Neg(n),
		new(big.Int).Lsh(n, 70), // far over the order, wider than four limbs
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(n.BitLen()-1)), big.NewInt(1)), // all ones
	)
}

func TestFastExpMatchesGeneric(t *testing.T) {
	for _, g := range kernelCurves() {
		oracle := oracleOf(g)
		gen := g.Generator()
		bases := []Element{gen, g.Inv(gen), g.Identity()}
		rng := fixedbig.NewDRBG("kernel-vs-generic-" + g.name)
		base := gen
		for i := 0; i < 12; i++ {
			k, err := g.RandomScalar(rng)
			if err != nil {
				t.Fatal(err)
			}
			checkExpAgainstGeneric(t, g, oracle, base, k)
			base = g.Exp(base, k) // walk through varied points
		}
		bases = append(bases, base)
		for _, b := range bases {
			for _, k := range edgeScalars(g.n) {
				checkExpAgainstGeneric(t, g, oracle, b, k)
			}
		}
		for k := int64(0); k < 70; k++ {
			checkExpAgainstGeneric(t, g, oracle, base, big.NewInt(k))
		}
	}
}

// TestNamedCurvesUseKernel pins the property the performance rests on:
// whichever way a named curve is reached, it is the one group value with
// its one generator table. It also pins the field width and body:
// secp160r1 on three limbs and the fold (R = 1, so the field's one is the
// integer 1), the wider curves on four Montgomery limbs, so that a
// refactor cannot silently widen secp160r1 or drop its fold.
func TestNamedCurvesUseKernel(t *testing.T) {
	typed := map[string]struct {
		g     *ECGroup
		limbs int
		fold  bool
	}{
		"secp160r1": {Secp160r1(), 3, true},
		"secp224r1": {_secp224r1(), 4, false},
		"secp256r1": {Secp256r1(), 4, false},
	}
	for name, want := range typed {
		if got := mustByName(t, name); got != Group(want.g) {
			t.Errorf("%s: ByName and the typed constructor return different groups", name)
		}
		if got := want.g.kern.Width(); got != want.limbs {
			t.Errorf("%s: kernel field on %d limbs, want %d", name, got, want.limbs)
		}
		if got := want.g.kern.One() == (field.Elem{1}); got != want.fold {
			t.Errorf("%s: kernel field folds: %v, want %v", name, got, want.fold)
		}
	}
}

func TestExpAllocs(t *testing.T) {
	for _, g := range kernelCurves() {
		rng := fixedbig.NewDRBG("exp-allocs-" + g.name)
		base := g.Exp(g.Generator(), mustScalar(t, g, rng))
		k := mustScalar(t, g, rng)
		if allocs := testing.AllocsPerRun(20, func() { g.Exp(base, k) }); allocs >= 20 {
			t.Errorf("%s: variable-base Exp makes %.0f allocations, want < 20", g.name, allocs)
		}
	}
}

// TestKernellessFallback pins that there is no curve arithmetic beside
// the kernel: a spec the kernel cannot take is refused by name. secp256k1
// has a = 0; a 1024-bit prime stands in for a field or an order wider
// than four limbs.
func TestKernellessFallback(t *testing.T) {
	secp256k1 := curveSpec{
		name: "secp256k1",
		p:    mustHex("secp256k1", "p", "FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F"),
		a:    big.NewInt(0),
		b:    big.NewInt(7),
		gx:   mustHex("secp256k1", "gx", "79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798"),
		gy:   mustHex("secp256k1", "gy", "483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8"),
		n:    mustHex("secp256k1", "n", "FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141"),
	}
	wide := MODP1024().p
	wideField, wideOrder := secp224Spec(), secp224Spec()
	wideField.p, wideField.a = wide, new(big.Int).Sub(wide, big.NewInt(3))
	wideOrder.n = wide
	for _, spec := range []curveSpec{secp256k1, wideField, wideOrder} {
		if _, err := newECGroup(spec); !errors.Is(err, errCurveShape) {
			t.Errorf("%s (p %d bits, n %d bits): newECGroup returned %v, want errCurveShape",
				spec.name, spec.p.BitLen(), spec.n.BitLen(), err)
		}
	}
}

// secp224Spec returns P-224's parameters as a spec to mutate.
func secp224Spec() curveSpec {
	g := _secp224r1()
	return curveSpec{name: "bad", p: g.p, a: g.a, b: g.b, gx: g.gx, gy: g.gy, n: g.n}
}

func TestNewECGroupRejectsBadSpecs(t *testing.T) {
	cases := map[string]func(*curveSpec){
		"composite field": func(s *curveSpec) { s.p = new(big.Int).Add(s.p, big.NewInt(2)) },
		"composite order": func(s *curveSpec) { s.n = new(big.Int).Add(s.n, big.NewInt(2)) },
		"off-curve base":  func(s *curveSpec) { s.gy = new(big.Int).Add(s.gy, big.NewInt(1)) },
		// A prime that is not the base point's order. Exp reduces modulo
		// the claimed order, so a check of n·G = ∞ through Exp alone
		// would accept it.
		"wrong order": func(s *curveSpec) { s.n = Secp160r1().n },
	}
	for name, mutate := range cases {
		spec := secp224Spec()
		mutate(&spec)
		if _, err := newECGroup(spec); err == nil {
			t.Errorf("%s: newECGroup accepted the spec", name)
		}
	}
	if _, err := newECGroup(secp224Spec()); err != nil {
		t.Errorf("P-224's own parameters refused: %v", err)
	}
}

func TestWnafRecode(t *testing.T) {
	// Reconstruction: Σ d_i·2^i = e; digits odd or zero, |d| < 16; no two
	// non-zero digits within wnafWidth positions. The all-ones values
	// drive the carry through every window, 2^256−1 into digit 256.
	ones := func(bits uint) *big.Int {
		return new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), bits), big.NewInt(1))
	}
	cases := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(15), big.NewInt(16), big.NewInt(17),
		ones(64), ones(65), ones(251), ones(252), ones(255), ones(256)}
	rng := fixedbig.NewDRBG("wnaf-recode")
	for i := 0; i < 200; i++ {
		e, err := fixedbig.RandBits(rng, 256)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, e)
	}
	for _, e := range cases {
		limbs := field.Limbs(e)
		var digits [257]int8
		n := wnafRecode(&digits, &limbs)
		sum := new(big.Int)
		lastNonZero := -wnafWidth
		for i, d := range digits {
			if d == 0 {
				continue
			}
			if i >= n {
				t.Fatalf("e=%x: non-zero digit at %d beyond the reported length %d", e, i, n)
			}
			if d%2 == 0 || d > 15 || d < -15 {
				t.Fatalf("e=%x: digit %d at %d out of wNAF range", e, d, i)
			}
			if i-lastNonZero < wnafWidth {
				t.Fatalf("e=%x: non-zero digits at %d and %d violate the NAF property", e, lastNonZero, i)
			}
			lastNonZero = i
			term := new(big.Int).Lsh(big.NewInt(int64(d)), uint(i))
			sum.Add(sum, term)
		}
		if n != lastNonZero+1 && !(n == 0 && e.Sign() == 0) {
			t.Fatalf("e=%x: length %d, last non-zero digit at %d", e, n, lastNonZero)
		}
		if sum.Cmp(e) != 0 {
			t.Fatalf("wNAF reconstruction: got %x, want %x", sum, e)
		}
	}
}

func TestKernelHandlesUnreducedCoordinates(t *testing.T) {
	// A point as a hostile peer could send it before Validate rejects
	// it: coordinates shifted by multiples of p. The kernel must reduce
	// them, never panic.
	g := Secp160r1()
	oracle := oracleOf(g)
	h := g.Exp(g.Generator(), big.NewInt(12345))
	bad := unreduced(g, h)
	k := big.NewInt(99)
	if !oracle.Equal(g.Exp(bad, k), oracle.Exp(h, k)) {
		t.Fatal("Exp on unreduced coordinates disagrees with the reduced point")
	}
	if !oracle.Equal(g.Op(bad, h), oracle.Op(h, h)) {
		t.Fatal("Op on unreduced coordinates disagrees with the reduced point")
	}
	if !oracle.Equal(g.Op(bad, g.Identity()), h) || !oracle.Equal(g.Op(g.Identity(), bad), h) {
		t.Fatal("Op of unreduced coordinates and the identity is not the reduced point")
	}
}

func BenchmarkExp(b *testing.B) {
	toy := ToyDL256()
	groups := map[string]Group{
		"secp160r1": Secp160r1(),
		"secp224r1": _secp224r1(), "secp256r1": Secp256r1(),
		"modp-1024": MODP1024(), "toy-dl-256": toy,
	}
	for name, g := range groups {
		g := g
		rng := fixedbig.NewDRBG("bench-exp")
		k, _ := g.RandomScalar(rng)
		h := ExpGen(g, k)
		b.Run(name+"/var", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.Exp(h, k)
			}
		})
		b.Run(name+"/gen", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ExpGen(g, k)
			}
		})
		b.Run(name+"/op", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.Op(h, h)
			}
		})
	}
}

// BenchmarkMultiExp sets the chain hop's arithmetic as one MultiExp
// batch against the Exp/Op/Inv composition it replaces, sixteen
// ciphertexts (c, c1) per operation on both benchmark curves:
// (c^r·c1^s, c1^r) against ((c·(c1^x)⁻¹)^r, c1^r).
func BenchmarkMultiExp(b *testing.B) {
	const batch = 16
	for _, g := range []*ECGroup{Secp160r1(), Secp256r1()} {
		rng := fixedbig.NewDRBG("bench-multiexp")
		scalar := func() *big.Int {
			k, err := g.RandomScalar(rng)
			if err != nil {
				b.Fatal(err)
			}
			return k
		}
		x := scalar()
		bases := make([]Element, 2*batch)
		rs := make([]*big.Int, batch)
		var products [][]Term
		for i := range rs {
			bases[2*i], bases[2*i+1] = ExpGen(g, scalar()), ExpGen(g, scalar())
			rs[i] = scalar()
			s := new(big.Int).Mul(x, rs[i])
			s.Neg(s).Mod(s, g.n)
			products = append(products, []Term{{2 * i, rs[i]}, {2*i + 1, s}}, []Term{{2*i + 1, rs[i]}})
		}
		b.Run(g.name+"/fused-x16", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MultiExp(g, bases, products)
			}
		})
		b.Run(g.name+"/composed-x16", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j, r := range rs {
					c, c1 := bases[2*j], bases[2*j+1]
					g.Exp(g.Op(c, g.Inv(g.Exp(c1, x))), r)
					g.Exp(c1, r)
				}
			}
		})
	}
}

// BenchmarkPointOps prices the kernel's two hot formulas one operation
// at a time, each result fed to the next: a doubling and a mixed
// addition of an affine point, on secp160r1 (the fold formulas) and P-256
// (the P-256 formulas). The Jacobian operand starts with Z ≠ 1.
func BenchmarkPointOps(b *testing.B) {
	for _, g := range []*ECGroup{Secp160r1(), Secp256r1()} {
		k := g.kern
		rng := fixedbig.NewDRBG("bench-point-ops")
		p := k.lift(g.unwrap(ExpGen(g, mustScalar(b, g, rng))))
		q := k.lift(g.unwrap(ExpGen(g, mustScalar(b, g, rng))))
		start := k.toJac(&p)
		k.double(&start, &start)
		b.Run(g.name+"/double", func(b *testing.B) {
			acc := start
			for i := 0; i < b.N; i++ {
				k.double(&acc, &acc)
			}
			pointSink = acc
		})
		b.Run(g.name+"/add-affine", func(b *testing.B) {
			acc := start
			for i := 0; i < b.N; i++ {
				k.addAffine(&acc, &acc, &q)
			}
			pointSink = acc
		})
	}
}

var pointSink jacPt
