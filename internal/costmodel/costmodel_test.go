package costmodel

import (
	"context"
	"math/big"
	"testing"

	"groupranking/internal/fixedbig"
	"groupranking/internal/group"
	"groupranking/internal/nettap"
	"groupranking/internal/transport"
	"groupranking/internal/unlinksort"
)

func TestPaperDefaults(t *testing.T) {
	s := PaperDefaults()
	if s.N != 25 || s.M != 10 || s.D1 != 15 || s.H != 15 {
		t.Errorf("defaults %+v disagree with Section VII", s)
	}
	if s.L() != 56 {
		t.Errorf("L = %d, want 56 (= 15 + 4 + 15 + 20 + 2)", s.L())
	}
}

func TestParticipantExpsGrowthIsQuadratic(t *testing.T) {
	// Section VI-B: our per-participant cost is O(l²n + l·n²·λ); with l
	// fixed the exponentiation count grows quadratically in n.
	l := 56
	e20 := ParticipantExps(20, l)
	e40 := ParticipantExps(40, l)
	e80 := ParticipantExps(80, l)
	r1 := float64(e40) / float64(e20)
	r2 := float64(e80) / float64(e40)
	if r1 < 3.2 || r1 > 4.8 || r2 < 3.2 || r2 > 4.8 {
		t.Errorf("doubling n scaled exps by %.2f then %.2f, want ≈4 (quadratic)", r1, r2)
	}
}

func TestSSFieldMultsGrowthIsSuperQuadratic(t *testing.T) {
	// The baseline is O(l·t·n²·log²n) with t ≈ n/2, i.e. between n² and
	// n³ — the paper's Fig. 2(a) calls it "approximately cubic".
	l := 56
	m20 := SSFieldMultsPerParty(20, l)
	m40 := SSFieldMultsPerParty(40, l)
	ratio := float64(m40) / float64(m20)
	if ratio < 8 || ratio > 32 {
		t.Errorf("doubling n scaled SS mults by %.2f, want roughly cubic (8×) or above", ratio)
	}
	// And the SS baseline must be asymptotically worse than ours.
	growOurs := float64(ParticipantExps(80, l)) / float64(ParticipantExps(20, l))
	growSS := float64(SSFieldMultsPerParty(80, l)) / float64(SSFieldMultsPerParty(20, l))
	if growSS <= growOurs {
		t.Errorf("SS growth %.1f not worse than ours %.1f", growSS, growOurs)
	}
}

func TestRoundCounts(t *testing.T) {
	// Ours is O(n); the baseline's serial bound is astronomically larger
	// (one round per multiplication invocation, Section VI-B).
	if OursRounds(25) != 34 {
		t.Errorf("OursRounds(25) = %d", OursRounds(25))
	}
	if SSRoundsSerial(25, 56) <= 100*OursRounds(25) {
		t.Error("serial SS rounds should dwarf ours")
	}
	// The layered implementation is far better than serial but still
	// grows with l and depth.
	if SSRoundsLayered(25, 56) >= SSRoundsSerial(25, 56) {
		t.Error("layered rounds must beat serial rounds")
	}
	if SSRoundsLayered(25, 56) <= OursRounds(25) {
		t.Error("even layered SS uses more rounds than the chain")
	}
	if SSRoundsNishideOhta(25) >= SSRoundsLayered(25, 56) {
		t.Error("constant-round comparisons must beat the O(l)-round circuit")
	}
	if SSRoundsNishideOhta(25) <= OursRounds(25) {
		t.Error("the baseline still uses more rounds than the chain")
	}
}

func TestLinearSensitivityInL(t *testing.T) {
	// Fig. 2(c)/(d): execution time grows linearly when d1 or h grows,
	// because only l grows linearly.
	base := Setting{N: 25, M: 10, D1: 15, D2: 10, H: 15}
	wide := base
	wide.D1 = 30
	lRatio := float64(wide.L()) / float64(base.L())
	expRatio := float64(ParticipantExps(25, wide.L())) / float64(ParticipantExps(25, base.L()))
	if diff := expRatio - lRatio; diff > 0.05 || diff < -0.05 {
		t.Errorf("exp count ratio %.3f should track l ratio %.3f", expRatio, lRatio)
	}
}

func TestMeasureGroupsAndEstimates(t *testing.T) {
	g, err := group.GenerateDLGroup(128, fixedbig.NewDRBG("cm-group"))
	if err != nil {
		t.Fatal(err)
	}
	tm, err := MeasureGroups([]group.Group{g}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tm.ExpSec[g.Name()] <= 0 {
		t.Fatal("measured exponentiation time not positive")
	}
	s := Setting{N: 10, M: 4, D1: 6, D2: 4, H: 6}
	sec, err := tm.OursParticipantSec(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if sec <= 0 {
		t.Error("participant estimate not positive")
	}
	if _, err := tm.OursParticipantSec(group.Secp160r1(), s); err == nil {
		t.Error("unmeasured group accepted")
	}

	if err := tm.MeasureFieldMul(s.SSFieldBits(), 1000); err != nil {
		t.Fatal(err)
	}
	ssSec, err := tm.SSParticipantSec(s, s.SSFieldBits())
	if err != nil {
		t.Fatal(err)
	}
	if ssSec <= 0 {
		t.Error("SS estimate not positive")
	}
	if _, err := tm.SSParticipantSec(s, 9999); err == nil {
		t.Error("unmeasured field size accepted")
	}
}

func TestMeasureValidation(t *testing.T) {
	if _, err := MeasureGroups(nil, 0); err == nil {
		t.Error("zero iterations accepted")
	}
	tm := &Timings{FieldMulSec: map[int]float64{}}
	if err := tm.MeasureFieldMul(64, 0); err == nil {
		t.Error("zero iterations accepted")
	}
}

func TestSyntheticTraceMatchesRealProtocol(t *testing.T) {
	// The synthetic phase-2 trace must reproduce the real unlinksort
	// fabric trace: same total bytes and same round structure. This is
	// what justifies replaying synthetic traces at paper scale.
	g, err := group.GenerateDLGroup(128, fixedbig.NewDRBG("cm-trace-group"))
	if err != nil {
		t.Fatal(err)
	}
	s := Setting{N: 4, M: 4, D1: 4, D2: 3, H: 4}
	l := s.L()
	betas := make([]*big.Int, s.N)
	for i := range betas {
		betas[i] = big.NewInt(int64(i * 3))
	}
	var rec *nettap.Recorder
	_, _, err = unlinksort.RunCtx(context.Background(), unlinksort.Config{Group: g, L: l}, betas, "cm-trace", func(n transport.Net) transport.Net {
		rec = nettap.NewRecorder(n)
		return rec
	})
	if err != nil {
		t.Fatal(err)
	}
	real := rec.Events()
	var realBytes int64
	realRounds := map[int]bool{}
	for _, ev := range real {
		realBytes += int64(ev.Bytes)
		realRounds[ev.Round] = true
	}

	ctBytes := 2 * g.ElementLen()
	scalarBytes := (g.Order().BitLen() + 7) / 8
	synth := OursTrace(s, ctBytes, g.ElementLen(), scalarBytes, 8)
	var synthPhase2 int64
	synthRounds := map[int]bool{}
	for _, ev := range synth {
		if ev.Round >= 11 && ev.Round < 1<<20 {
			synthPhase2 += int64(ev.Bytes)
			synthRounds[ev.Round-10] = true // subview offset
		}
	}
	if synthPhase2 != realBytes {
		t.Errorf("synthetic phase-2 bytes %d, real %d", synthPhase2, realBytes)
	}
	if len(synthRounds) != len(realRounds) {
		t.Errorf("synthetic phase-2 rounds %d, real %d", len(synthRounds), len(realRounds))
	}
}

func TestSyntheticTraceEndpoints(t *testing.T) {
	s := Setting{N: 5, M: 4, D1: 4, D2: 3, H: 4}
	tr := OursTrace(s, 64, 32, 16, 8)
	for _, ev := range tr {
		if ev.From < 0 || ev.From > s.N || ev.To < 0 || ev.To > s.N {
			t.Fatalf("event endpoints out of range: %+v", ev)
		}
		if ev.From == ev.To {
			t.Fatalf("self message: %+v", ev)
		}
	}
}

func TestSSRoundTraceShape(t *testing.T) {
	tr := SSRoundTrace(6, 16, 3)
	if len(tr) != 6*5 {
		t.Fatalf("trace has %d events, want all-to-all 30", len(tr))
	}
	for _, ev := range tr {
		if ev.Bytes != 48 {
			t.Errorf("event bytes %d, want 48", ev.Bytes)
		}
	}
	if SSElemsPerRound(6, 20, SSRoundsLayered(6, 20)) < 1 {
		t.Error("batch size must be at least 1")
	}
}
