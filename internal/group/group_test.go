package group

import (
	"fmt"
	"math/big"
	"testing"
	"testing/quick"

	"groupranking/internal/fixedbig"
)

// testGroups returns one small generated DL group (fast) plus the fixed
// production groups that are cheap enough to exercise in unit tests.
func testGroups(t *testing.T) []Group {
	t.Helper()
	dl, err := GenerateDLGroup(128, fixedbig.NewDRBG("group-test"))
	if err != nil {
		t.Fatalf("GenerateDLGroup: %v", err)
	}
	return []Group{dl, MODP1024(), Secp160r1(), _secp224r1(), Secp256r1()}
}

func TestGroupAxioms(t *testing.T) {
	for _, g := range testGroups(t) {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			rng := fixedbig.NewDRBG("axioms-" + g.Name())
			a := ExpGen(g, mustScalar(t, g, rng))
			b := ExpGen(g, mustScalar(t, g, rng))
			c := ExpGen(g, mustScalar(t, g, rng))

			// Associativity.
			if !g.Equal(g.Op(g.Op(a, b), c), g.Op(a, g.Op(b, c))) {
				t.Error("associativity failed")
			}
			// Identity.
			if !g.Equal(g.Op(a, g.Identity()), a) {
				t.Error("right identity failed")
			}
			if !g.Equal(g.Op(g.Identity(), a), a) {
				t.Error("left identity failed")
			}
			// Inverse.
			if !g.IsIdentity(g.Op(a, g.Inv(a))) {
				t.Error("inverse failed")
			}
			// Commutativity (all our groups are abelian).
			if !g.Equal(g.Op(a, b), g.Op(b, a)) {
				t.Error("commutativity failed")
			}
			// Generator order: g^q = identity.
			if !g.IsIdentity(ExpGen(g, g.Order())) {
				t.Error("generator order is not q")
			}
			if g.IsIdentity(g.Generator()) {
				t.Error("generator is the identity")
			}
		})
	}
}

func TestExpLaws(t *testing.T) {
	for _, g := range testGroups(t) {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			rng := fixedbig.NewDRBG("exp-" + g.Name())
			x := mustScalar(t, g, rng)
			y := mustScalar(t, g, rng)
			base := ExpGen(g, mustScalar(t, g, rng))

			// a^(x+y) = a^x ∘ a^y.
			sum := new(big.Int).Add(x, y)
			if !g.Equal(g.Exp(base, sum), g.Op(g.Exp(base, x), g.Exp(base, y))) {
				t.Error("exponent addition law failed")
			}
			// (a^x)^y = a^(xy).
			prod := new(big.Int).Mul(x, y)
			if !g.Equal(g.Exp(g.Exp(base, x), y), g.Exp(base, prod)) {
				t.Error("exponent multiplication law failed")
			}
			// a^0 = identity, a^1 = a.
			if !g.IsIdentity(g.Exp(base, big.NewInt(0))) {
				t.Error("a^0 is not identity")
			}
			if !g.Equal(g.Exp(base, big.NewInt(1)), base) {
				t.Error("a^1 is not a")
			}
			// a^(-x) = (a^x)^{-1}.
			neg := new(big.Int).Neg(x)
			if !g.Equal(g.Exp(base, neg), g.Inv(g.Exp(base, x))) {
				t.Error("negative exponent law failed")
			}
		})
	}
}

func TestExpSmallScalarsQuick(t *testing.T) {
	// For small scalars, exponentiation agrees with repeated Op.
	for _, g := range []Group{Secp160r1(), MODP1024()} {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			f := func(k uint8) bool {
				want := g.Identity()
				for i := 0; i < int(k); i++ {
					want = g.Op(want, g.Generator())
				}
				got := ExpGen(g, big.NewInt(int64(k)))
				return g.Equal(got, want)
			}
			cfg := &quick.Config{MaxCount: 20}
			if err := quick.Check(f, cfg); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, g := range testGroups(t) {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			rng := fixedbig.NewDRBG("encode-" + g.Name())
			for i := 0; i < 5; i++ {
				e := ExpGen(g, mustScalar(t, g, rng))
				data := g.AppendElement(nil, e)
				if len(data) != g.ElementLen() {
					t.Fatalf("encoded length %d, want %d", len(data), g.ElementLen())
				}
				back, err := g.Decode(data)
				if err != nil {
					t.Fatalf("Decode: %v", err)
				}
				if !g.Equal(e, back) {
					t.Fatal("round trip mismatch")
				}
			}
		})
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, g := range testGroups(t) {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			if _, err := g.Decode([]byte{1, 2, 3}); err == nil {
				t.Error("short input accepted")
			}
			junk := make([]byte, g.ElementLen())
			for i := range junk {
				junk[i] = 0xFF
			}
			if _, err := g.Decode(junk); err == nil {
				t.Error("out-of-range input accepted")
			}
		})
	}
}

func TestDLDecodeRejectsNonResidue(t *testing.T) {
	g := MODP1024()
	// Find a quadratic non-residue and check Decode rejects it.
	v := big.NewInt(2)
	for big.Jacobi(v, g.p) == 1 {
		v.Add(v, big.NewInt(1))
	}
	data := v.FillBytes(make([]byte, g.ElementLen()))
	if _, err := g.Decode(data); err == nil {
		t.Error("non-residue accepted by Decode")
	}
}

func TestECDecodeRejectsOffCurve(t *testing.T) {
	g := Secp160r1()
	e := g.Generator()
	data := g.AppendElement(nil, e)
	data[len(data)-1] ^= 1 // perturb Y
	if _, err := g.Decode(data); err == nil {
		t.Error("off-curve point accepted by Decode")
	}
}

func TestECIdentityEncoding(t *testing.T) {
	g := Secp160r1()
	id := g.Identity()
	back, err := g.Decode(g.AppendElement(nil, id))
	if err != nil {
		t.Fatalf("Decode identity: %v", err)
	}
	if !g.IsIdentity(back) {
		t.Error("identity round trip failed")
	}
}

func TestRandomScalarRange(t *testing.T) {
	for _, g := range testGroups(t) {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			rng := fixedbig.NewDRBG("scalar-" + g.Name())
			for i := 0; i < 20; i++ {
				k, err := g.RandomScalar(rng)
				if err != nil {
					t.Fatal(err)
				}
				if k.Sign() <= 0 || k.Cmp(g.Order()) >= 0 {
					t.Fatalf("scalar %s out of [1, q)", k)
				}
			}
		})
	}
}

// TestMODPGroupsAreSafePrimes checks every named DL group's pinned
// constant, the toy's included, beyond what newDLGroup checks on first
// use: the exact bit length and a quadratic-residue generator.
func TestMODPGroupsAreSafePrimes(t *testing.T) {
	for _, g := range []*DLGroup{MODP1024(), _modp2048(), _modp3072(), ToyDL256()} {
		p := g.p
		if !p.ProbablyPrime(32) {
			t.Errorf("%s: p not prime", g.Name())
		}
		if !g.Order().ProbablyPrime(32) {
			t.Errorf("%s: q not prime", g.Name())
		}
		wantBits := map[string]int{"modp-1024": 1024, "modp-2048": 2048, "modp-3072": 3072, "toy-dl-256": 256}[g.Name()]
		if p.BitLen() != wantBits {
			t.Errorf("%s: %d bits, want %d", g.Name(), p.BitLen(), wantBits)
		}
		// Generator must be a quadratic residue so its order is exactly q.
		ge := g.unwrap(g.Generator())
		if big.Jacobi(ge, p) != 1 {
			t.Errorf("%s: generator not a quadratic residue", g.Name())
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"modp-1024", "modp-2048", "modp-3072", "secp160r1", "secp224r1", "secp256r1", "toy-dl-256"} {
		g, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if g.Name() != name {
			t.Errorf("ByName(%q) returned %q", name, g.Name())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestECAddDoubleConsistency(t *testing.T) {
	g := Secp160r1()
	p1 := g.Generator()
	// 2P via Op(P, P) must equal Exp(P, 2).
	if !g.Equal(g.Op(p1, p1), g.Exp(p1, big.NewInt(2))) {
		t.Error("doubling via Op disagrees with Exp")
	}
	// P + (−P) = ∞.
	if !g.IsIdentity(g.Op(p1, g.Inv(p1))) {
		t.Error("P + (−P) is not the identity")
	}
	// ∞ + P = P.
	if !g.Equal(g.Op(g.Identity(), p1), p1) {
		t.Error("identity addition failed")
	}
}

// TestGenerateDLGroupDeterministic pins that a generated group is a
// function of its reader's stream: the call sites that seed a DRBG and
// generate a test group assume one group, not one of several.
func TestGenerateDLGroupDeterministic(t *testing.T) {
	var want *big.Int
	for i := 0; i < 16; i++ {
		g, err := GenerateDLGroup(128, fixedbig.NewDRBG("zkp-group"))
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = g.p
		} else if g.p.Cmp(want) != 0 {
			t.Fatalf("draw %d from a fresh DRBG gave modulus %x, the first gave %x", i, g.p, want)
		}
	}
}

func TestGenerateDLGroupRejectsTiny(t *testing.T) {
	if _, err := GenerateDLGroup(8, fixedbig.NewDRBG("tiny")); err == nil {
		t.Error("expected error for tiny group size")
	}
}

func TestMixedElementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic when mixing elements across groups")
		}
	}()
	MODP1024().Op(MODP1024().Generator(), Secp160r1().Generator())
}

func mustScalar(t testing.TB, g Group, rng *fixedbig.DRBG) *big.Int {
	t.Helper()
	k, err := g.RandomScalar(rng)
	if err != nil {
		t.Fatalf("RandomScalar: %v", err)
	}
	return k
}

func TestToyDL256(t *testing.T) {
	g := ToyDL256()
	if g.Name() != "toy-dl-256" || g.p.BitLen() != 256 {
		t.Errorf("toy group malformed: %s, %d bits", g.Name(), g.p.BitLen())
	}
	// Deterministic across calls and reachable via ByName.
	g2, err := ByName("toy-dl-256")
	if err != nil {
		t.Fatal(err)
	}
	if g2.Name() != g.Name() || g2.Order().Cmp(g.Order()) != 0 {
		t.Error("ByName returned a different toy group")
	}
	// Usable for the protocol stack.
	k, err := g.RandomScalar(fixedbig.NewDRBG("toy"))
	if err != nil {
		t.Fatal(err)
	}
	if g.IsIdentity(ExpGen(g, k)) {
		t.Error("toy group exponentiation degenerate")
	}
}

// TestToyDL256Derivation runs the search toy-dl-256's pinned prime comes
// from, a DRBG search for a 255-bit prime q, reseeded with q until 2q+1
// is prime, and checks that it re-derives the constant.
func TestToyDL256Derivation(t *testing.T) {
	var p *big.Int
	q, err := fixedbig.Prime(fixedbig.NewDRBG("groupranking-toy-dl-256"), 255)
	for err == nil {
		p = new(big.Int).Lsh(q, 1)
		p.Add(p, big.NewInt(1))
		if p.ProbablyPrime(32) {
			break
		}
		q, err = fixedbig.Prime(fixedbig.NewDRBG(fmt.Sprintf("groupranking-toy-dl-256-%s", q)), 255)
	}
	if err != nil {
		t.Fatal(err)
	}
	if p.Cmp(ToyDL256().p) != 0 {
		t.Fatalf("the search derives %x, toy-dl-256 pins %x", p, ToyDL256().p)
	}
}

// BenchmarkNamedGroupBuild prices each ByName group's first use: one
// iteration runs the group's unmemoised builder, which parses its
// constants and validates them as the first lookup does.
func BenchmarkNamedGroupBuild(b *testing.B) {
	for _, n := range namedGroups {
		if n.build == nil {
			continue
		}
		b.Run(n.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n.build()
			}
		})
	}
}

// TestWireRoundTripElements pins what wire decoding rests on: every
// ByName group has a wire ID that resolves back to it, its elements
// record it and round-trip through AppendElement and Decode, and a
// group outside ByName, or an ID no group has, names nothing.
func TestWireRoundTripElements(t *testing.T) {
	for _, g := range allNamedGroups(t)[:7] {
		id := WireID(g)
		if back, err := ByWireID(id); id == 0 || err != nil || back != g {
			t.Fatalf("%s: wire ID %d resolves to %v, %v", g.Name(), id, back, err)
		}
		for _, e := range []Element{g.Identity(), g.Generator(), ExpGen(g, big.NewInt(0x5A5A))} {
			back, err := g.Decode(g.AppendElement([]byte{}, e))
			if err != nil || !g.Equal(back, e) || Of(e) != g || Of(back) != g {
				t.Fatalf("%s: element does not round-trip under its group: %v", g.Name(), err)
			}
		}
	}
	dl, err := GenerateDLGroup(64, fixedbig.NewDRBG("unnamed"))
	if err != nil {
		t.Fatal(err)
	}
	if id := WireID(dl); id != 0 {
		t.Errorf("a generated group has wire ID %d", id)
	}
	for _, id := range []byte{0, 8, 0xFF} {
		if g, err := ByWireID(id); err == nil {
			t.Errorf("wire ID %d names %s", id, g.Name())
		}
	}
}

func TestGenericExpMatchesRepeatedOp(t *testing.T) {
	// The reference curve's ladder must agree with its own repeated
	// addition across a range of scalars, including bit-length
	// boundaries: the kernel is only as trustworthy as this oracle.
	g := oracleOf(Secp160r1())
	for _, k := range []int64{1, 2, 3, 7, 8, 15, 16, 17, 31, 255, 256, 1000} {
		want := g.Identity()
		for i := int64(0); i < k; i++ {
			want = g.Op(want, g.Generator())
		}
		got := g.Exp(g.Generator(), big.NewInt(k))
		if !g.Equal(got, want) {
			t.Fatalf("Exp(%d) disagrees with repeated Op", k)
		}
	}
}
