package workload

import (
	"crypto/rand"
	"encoding/json"
	"math/big"
	"testing"
	"testing/quick"

	"groupranking/internal/dotprod"
	"groupranking/internal/fixedbig"
)

func testQuestionnaire(t *testing.T, m, tEq int) *Questionnaire {
	t.Helper()
	q, err := Uniform(m, tEq)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestNewQuestionnaireOrdering(t *testing.T) {
	ok := []Attribute{
		{Name: "age", Kind: EqualTo},
		{Name: "bp", Kind: EqualTo},
		{Name: "friends", Kind: GreaterThan},
	}
	q, err := NewQuestionnaire(ok)
	if err != nil {
		t.Fatal(err)
	}
	if q.M() != 3 || q.T() != 2 {
		t.Errorf("M=%d T=%d, want 3, 2", q.M(), q.T())
	}
	bad := []Attribute{
		{Name: "friends", Kind: GreaterThan},
		{Name: "age", Kind: EqualTo},
	}
	if _, err := NewQuestionnaire(bad); err == nil {
		t.Error("equal-to after greater-than accepted")
	}
	if _, err := NewQuestionnaire(nil); err == nil {
		t.Error("empty questionnaire accepted")
	}
	if _, err := NewQuestionnaire([]Attribute{{Name: "x"}}); err == nil {
		t.Error("zero-kind attribute accepted")
	}
}

func TestUniformBounds(t *testing.T) {
	if _, err := Uniform(5, 6); err == nil {
		t.Error("t > m accepted")
	}
	if _, err := Uniform(5, -1); err == nil {
		t.Error("negative t accepted")
	}
	q, err := Uniform(4, 0)
	if err != nil || q.T() != 0 {
		t.Error("all-greater-than questionnaire failed")
	}
	q, err = Uniform(4, 4)
	if err != nil || q.T() != 4 {
		t.Error("all-equal-to questionnaire failed")
	}
}

func TestGainHandComputed(t *testing.T) {
	// m=3, t=1: g = −w0(v0−c0)² + w1(v1−c1) + w2(v2−c2).
	q := testQuestionnaire(t, 3, 1)
	c := Criterion{Values: []int64{10, 5, 0}, Weights: []int64{2, 3, 4}}
	p := Profile{Values: []int64{13, 9, 7}}
	// g = −2·9 + 3·4 + 4·7 = −18 + 12 + 28 = 22.
	g, err := q.Gain(c, p)
	if err != nil {
		t.Fatal(err)
	}
	if g.Int64() != 22 {
		t.Errorf("gain = %s, want 22", g)
	}
}

func TestPartialGainDiffersByConstant(t *testing.T) {
	q := testQuestionnaire(t, 6, 3)
	rng := fixedbig.NewDRBG("pg-const")
	c, err := RandomCriterion(q, 10, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	var prevDiff *big.Int
	for i := 0; i < 8; i++ {
		p, err := RandomProfile(q, 10, rng)
		if err != nil {
			t.Fatal(err)
		}
		g, err := q.Gain(c, p)
		if err != nil {
			t.Fatal(err)
		}
		pg, err := q.PartialGain(c, p)
		if err != nil {
			t.Fatal(err)
		}
		diff := new(big.Int).Sub(pg, g)
		if prevDiff != nil && diff.Cmp(prevDiff) != 0 {
			t.Fatalf("partial gain offset is profile dependent: %s vs %s", diff, prevDiff)
		}
		prevDiff = diff
	}
}

func TestPartialGainPreservesOrderQuick(t *testing.T) {
	q := testQuestionnaire(t, 4, 2)
	c := Criterion{Values: []int64{100, 50, 0, 0}, Weights: []int64{3, 1, 2, 5}}
	f := func(a0, a1, a2, a3, b0, b1, b2, b3 uint8) bool {
		pa := Profile{Values: []int64{int64(a0), int64(a1), int64(a2), int64(a3)}}
		pb := Profile{Values: []int64{int64(b0), int64(b1), int64(b2), int64(b3)}}
		ga, err := q.Gain(c, pa)
		if err != nil {
			return false
		}
		gb, err := q.Gain(c, pb)
		if err != nil {
			return false
		}
		pga, err := q.PartialGain(c, pa)
		if err != nil {
			return false
		}
		pgb, err := q.PartialGain(c, pb)
		if err != nil {
			return false
		}
		return ga.Cmp(gb) == pga.Cmp(pgb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestVectorsReproducePartialGainViaDotProduct(t *testing.T) {
	// The crucial Section V identity: running the secure dot product on
	// ParticipantVector and InitiatorVector with offset ρ_j yields
	// β = ρ·PartialGain + ρ_j.
	q := testQuestionnaire(t, 5, 2)
	rng := fixedbig.NewDRBG("vectors")
	c, err := RandomCriterion(q, 8, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := RandomProfile(q, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	rho := big.NewInt(1000)
	rhoJ := big.NewInt(123)

	w, err := q.ParticipantVector(p)
	if err != nil {
		t.Fatal(err)
	}
	v, err := q.InitiatorVector(c, rho)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != len(v) {
		t.Fatalf("vector lengths differ: %d vs %d", len(w), len(v))
	}
	prime, err := rand.Prime(rng, 128)
	if err != nil {
		t.Fatal(err)
	}
	params := dotprod.DefaultSRange(prime)
	beta, err := dotprod.Compute(params, w, v, rhoJ, rng)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := q.PartialGain(c, p)
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Mul(rho, pg)
	want.Add(want, rhoJ)
	want.Mod(want, prime)
	if beta.Cmp(want) != 0 {
		t.Errorf("β = %s, want %s", beta, want)
	}
}

func TestBitWidthBounds(t *testing.T) {
	// partialGainBits must bound every partial gain reachable with the
	// given widths.
	q := testQuestionnaire(t, 8, 4)
	rng := fixedbig.NewDRBG("widths")
	const d1, d2 = 6, 4
	bits := partialGainBits(8, d1, d2)
	for trial := 0; trial < 50; trial++ {
		c, err := RandomCriterion(q, d1, d2, rng)
		if err != nil {
			t.Fatal(err)
		}
		p, err := RandomProfile(q, d1, rng)
		if err != nil {
			t.Fatal(err)
		}
		pg, err := q.PartialGain(c, p)
		if err != nil {
			t.Fatal(err)
		}
		if pg.BitLen() >= bits {
			t.Fatalf("partial gain %s needs %d bits, bound is %d", pg, pg.BitLen()+1, bits)
		}
	}
	if BetaBits(8, d1, d2, 10) != 10+bits {
		t.Error("BetaBits must be h + partialGainBits")
	}
	// The paper's formula for the defaults of Section VII.
	if got := PaperBetaBits(10, 15, 10, 15); got != 15+4+15+20+2 {
		t.Errorf("PaperBetaBits = %d, want 56", got)
	}
}

func TestDimensionMismatches(t *testing.T) {
	q := testQuestionnaire(t, 3, 1)
	good := Criterion{Values: []int64{1, 2, 3}, Weights: []int64{1, 1, 1}}
	short := Profile{Values: []int64{1}}
	if _, err := q.Gain(good, short); err == nil {
		t.Error("short profile accepted by Gain")
	}
	if _, err := q.PartialGain(good, short); err == nil {
		t.Error("short profile accepted by PartialGain")
	}
	if _, err := q.ParticipantVector(short); err == nil {
		t.Error("short profile accepted by ParticipantVector")
	}
	badC := Criterion{Values: []int64{1}, Weights: []int64{1, 1, 1}}
	if _, err := q.InitiatorVector(badC, big.NewInt(1)); err == nil {
		t.Error("short criterion accepted by InitiatorVector")
	}
}

func TestRandomGenerators(t *testing.T) {
	q := testQuestionnaire(t, 10, 5)
	rng := fixedbig.NewDRBG("gens")
	c, err := RandomCriterion(q, 15, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range c.Weights {
		if w <= 0 || w >= 1<<10 {
			t.Errorf("weight %d = %d outside (0, 2^10)", i, w)
		}
	}
	for i, v := range c.Values {
		if v < 0 || v >= 1<<15 {
			t.Errorf("value %d = %d outside [0, 2^15)", i, v)
		}
	}
	ps, err := RandomProfiles(q, 7, 15, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 7 {
		t.Fatalf("got %d profiles", len(ps))
	}
	if _, err := RandomProfile(q, 0, rng); err == nil {
		t.Error("zero bit width accepted")
	}
	if _, err := RandomProfile(q, 63, rng); err == nil {
		t.Error("oversized bit width accepted")
	}
}

func TestKindString(t *testing.T) {
	if EqualTo.String() != "eq" || GreaterThan.String() != "gt" {
		t.Error("Kind.String labels wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind must still print")
	}
}

// TestKindText: the two kinds round-trip through their text, and every
// other value is refused both ways, the zero Kind included.
func TestKindText(t *testing.T) {
	for _, k := range []Kind{EqualTo, GreaterThan} {
		text, err := k.MarshalText()
		if err != nil {
			t.Fatalf("%d: %v", int(k), err)
		}
		var back Kind
		if err := back.UnmarshalText(text); err != nil || back != k {
			t.Errorf("%q came back as %d (%v), want %d", text, int(back), err, int(k))
		}
	}
	for _, k := range []Kind{0, 3, -1} {
		if text, err := k.MarshalText(); err == nil {
			t.Errorf("Kind(%d) marshalled to %q", int(k), text)
		}
	}
	for _, text := range []string{"", "between", "EQ", "equal-to", "greater-than", " eq"} {
		k := Kind(7)
		if err := k.UnmarshalText([]byte(text)); err == nil {
			t.Errorf("%q accepted as %d", text, int(k))
		} else if k != 7 {
			t.Errorf("refused %q but still set the kind to %d", text, int(k))
		}
	}
	b, err := json.Marshal([]Attribute{{Name: "age", Kind: EqualTo}, {Name: "pay", Kind: GreaterThan}})
	if err != nil || string(b) != `[{"name":"age","kind":"eq"},{"name":"pay","kind":"gt"}]` {
		t.Errorf("attributes encode as %s (%v)", b, err)
	}
	if _, err := json.Marshal(Attribute{Name: "x"}); err == nil {
		t.Error("an attribute of the zero kind encoded")
	}
	var attrs []Attribute
	for _, doc := range []string{`[{"name":"x","kind":"between"}]`, `[{"name":"x","kind":1}]`} {
		if err := json.Unmarshal([]byte(doc), &attrs); err == nil {
			t.Errorf("%s decoded as %+v", doc, attrs)
		}
	}
}
