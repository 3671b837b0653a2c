package costmodel

import (
	"context"
	"fmt"
	"testing"

	"groupranking/internal/core"
	"groupranking/internal/dotprod"
	"groupranking/internal/fixedbig"
	"groupranking/internal/group"
	"groupranking/internal/netsim"
	"groupranking/internal/nettap"
	"groupranking/internal/transport"
	"groupranking/internal/workload"
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
	// Ours is O(n): n + 9 rounds, two for the gain phase, six for
	// keys, proofs, bits and τ collection, n − 1 chain hops, the final
	// distribution and the submission round. The baseline's serial
	// bound is astronomically larger (one round per multiplication
	// invocation, Section VI-B).
	s := PaperDefaults()
	ours := int64(netsim.Rounds(OursTrace(s, s.L(), group.Secp160r1(), 16)))
	if ours != 34 {
		t.Errorf("ours at n = 25: %d rounds, want 34", ours)
	}
	if SSRoundsSerial(25, 56) <= 100*ours {
		t.Error("serial SS rounds should dwarf ours")
	}
	if SSRoundsNishideOhta(25) >= SSRoundsSerial(25, 56) {
		t.Error("constant-round comparisons must beat serial rounds")
	}
	if SSRoundsNishideOhta(25) <= ours {
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

// TestSyntheticTraceMatchesRealProtocol holds the schedule to the
// messages a run sends, event for event: in a seeded core.RunCtx under a
// nettap.Recorder, at n = 3, 4 and 5, with key proofs on and off and
// ProveDecryption off and on, on a curve and a DL group, the recorded
// (round, from, to, bytes) and the expansion of core.Schedule are the
// same multiset. The one exception is a gain request: its size follows
// the matrix dimension its sender draws, so it must be the row's size at
// some s in [dotprod.SMin, dotprod.SMax]. The inputs rank the
// participants in index order, the order the schedule's submit and
// decline rows assume. Every row's ranges must fit its pattern.
func TestSyntheticTraceMatchesRealProtocol(t *testing.T) {
	for _, g := range []group.Group{group.Secp160r1(), group.ToyDL256()} {
		for _, n := range []int{3, 4, 5} {
			for _, proofs := range []bool{true, false} {
				for _, prove := range []bool{false, true} {
					p := core.Params{
						N: n, M: 3, T: 1, D1: 6, D2: 3, H: 4, K: 2, Group: g,
						SkipProofs: !proofs, ProveDecryption: prove, Workers: 1,
					}
					t.Run(fmt.Sprintf("%s/n=%d/proofs=%t/prove-decryption=%t", g.Name(), n, proofs, prove), func(t *testing.T) {
						checkTraceAgainstRun(t, p)
					})
				}
			}
		}
	}
}

func checkTraceAgainstRun(t *testing.T, p core.Params) {
	in := rankedInputs(t, p)
	var rec *nettap.Recorder
	res, _, err := core.RunCtx(context.Background(), p, in, "schedule-trace", func(n transport.Net) transport.Net {
		rec = nettap.NewRecorder(n)
		return rec
	})
	if err != nil {
		t.Fatal(err)
	}
	for j, r := range res.Ranks {
		if r != j+1 {
			t.Fatalf("ranks %v do not follow the participant index", res.Ranks)
		}
	}

	// The expected multiset. A dot-product flow is keyed with bytes −1,
	// and the sizes it may take are collected apart.
	l := p.BetaBits()
	rows := core.Schedule(p, l, (l+33+7)/8)
	for _, r := range rows {
		checkPattern(t, r)
	}
	lo, hi := expand(rows, dotprod.SMin), expand(rows, dotprod.SMax)
	want := map[netsim.Event]int{}
	flowSizes := map[int]bool{}
	for i, ev := range lo {
		if ev != hi[i] {
			for dim := dotprod.SMin; dim <= dotprod.SMax; dim++ {
				flowSizes[expand(rows, dim)[i].Bytes] = true
			}
			ev.Bytes = -1
		}
		want[ev]++
	}
	for _, ev := range rec.Events() {
		key := ev
		if want[key] == 0 && flowSizes[ev.Bytes] {
			key.Bytes = -1
		}
		if want[key] == 0 {
			t.Errorf("sent %+v, which the schedule does not list", ev)
			continue
		}
		want[key]--
	}
	for ev, left := range want {
		if left > 0 {
			t.Errorf("the schedule lists %+v %d more time(s) than the run sent it", ev, left)
		}
	}
}

// checkPattern holds a row's sender and receiver ranges to its
// pattern: an echo broadcast is every party of its range to every
// other, a plain broadcast one sender to a range, a chain hop one party
// to the next.
func checkPattern(t *testing.T, r transport.Round) {
	t.Helper()
	one := func(x [2]int) bool { return x[1]-x[0] == 1 }
	ok := true
	switch r.Pattern {
	case transport.EchoBroadcast:
		ok = r.From == r.To && r.From[1]-r.From[0] > 1
	case transport.PlainBroadcast:
		ok = one(r.From) && r.To[1]-r.To[0] > 1
	case transport.ChainHop:
		ok = one(r.From) && one(r.To) && r.To[0] == r.From[0]+1
	}
	if !ok {
		t.Errorf("round %d (%s): senders %v and receivers %v do not fit its pattern %d", r.Tag, r.Phase, r.From, r.To, r.Pattern)
	}
}

// rankedInputs draws inputs whose gains are distinct and descend with
// the participant index.
func rankedInputs(t *testing.T, p core.Params) core.Inputs {
	t.Helper()
	q, err := workload.Uniform(p.M, p.T)
	if err != nil {
		t.Fatal(err)
	}
draws:
	for attempt := 0; attempt < 20; attempt++ {
		rng := fixedbig.NewDRBG(fmt.Sprintf("schedule-inputs-%d-%d", p.N, attempt))
		crit, err := workload.RandomCriterion(q, p.D1, p.D2, rng)
		if err != nil {
			t.Fatal(err)
		}
		profiles, err := workload.RandomProfiles(q, p.N, p.D1, rng)
		if err != nil {
			t.Fatal(err)
		}
		ranks, err := core.ExpectedRanks(q, crit, profiles)
		if err != nil {
			t.Fatal(err)
		}
		ranked := make([]workload.Profile, p.N)
		for i, r := range ranks {
			if ranked[r-1].Values != nil {
				continue draws // a tie
			}
			ranked[r-1] = profiles[i]
		}
		return core.Inputs{Questionnaire: q, Criterion: crit, Profiles: ranked}
	}
	t.Fatal("no draw gave distinct gains")
	return core.Inputs{}
}

func TestSyntheticTraceEndpoints(t *testing.T) {
	s := Setting{N: 5, M: 4, D1: 4, D2: 3, H: 4}
	tr := OursTrace(s, s.L(), group.Secp160r1(), 8)
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
	if SSElemsPerRound(6, 20, SSRoundsNishideOhta(6)) < 1 {
		t.Error("batch size must be at least 1")
	}
}
