package groupranking

// One benchmark per evaluation artifact of the paper (Section VII and
// the Section VI-B table). These run the REAL protocol stack at laptop
// scale: small n and reduced bit widths so a full framework execution
// fits in a benchmark iteration. The paper-scale curves are produced by
// cmd/benchtab from the calibrated cost model; these benchmarks are the
// ground truth it is validated against (see EXPERIMENTS.md).
//
// Naming: BenchmarkFig2a_* vary n; Fig2b_* vary m; Fig2c_* vary d1;
// Fig2d_* vary h; Fig3a_* vary the security level; Fig3b_* replays a
// framework trace over the simulated network; TableVIB_* measure the
// primitive operations the complexity table counts.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"os"
	"testing"

	"groupranking/internal/benchtab"
	"groupranking/internal/core"
	"groupranking/internal/costmodel"
	"groupranking/internal/fixedbig"
	"groupranking/internal/group"
	"groupranking/internal/netsim"
	"groupranking/internal/unlinksort"
	"groupranking/internal/workload"
)

// benchParams is the laptop-scale configuration: the real protocols at
// full width are hours at paper scale, which is exactly why the cost
// model exists.
func benchParams(b *testing.B, n int, g group.Group, sorter core.Sorter) core.Params {
	b.Helper()
	return core.Params{
		N: n, M: 4, T: 2, D1: 6, D2: 4, H: 6, K: 2,
		Group: g, Sorter: sorter,
	}
}

// byName resolves a group the way Rank, rankparty and rankd do, so the
// benchmarks time the path users reach.
func byName(b *testing.B, name string) group.Group {
	b.Helper()
	g, err := group.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchInputs(b *testing.B, params core.Params, seed string) core.Inputs {
	b.Helper()
	q, err := workload.Uniform(params.M, params.T)
	if err != nil {
		b.Fatal(err)
	}
	rng := fixedbig.NewDRBG(seed)
	crit, err := workload.RandomCriterion(q, params.D1, params.D2, rng)
	if err != nil {
		b.Fatal(err)
	}
	profiles, err := workload.RandomProfiles(q, params.N, params.D1, rng)
	if err != nil {
		b.Fatal(err)
	}
	return core.Inputs{Questionnaire: q, Criterion: crit, Profiles: profiles}
}

func runFramework(b *testing.B, params core.Params, seed string) {
	b.Helper()
	in := benchInputs(b, params, seed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.RunCtx(context.Background(), params, in, fmt.Sprintf("%s-%d", seed, i), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 2(a): full framework vs n, all three frameworks ---

func BenchmarkFig2a_ECC_n4(b *testing.B) {
	runFramework(b, benchParams(b, 4, byName(b, "secp160r1"), core.SorterUnlinkable), "fig2a-ecc-4")
}

func BenchmarkFig2a_ECC_n6(b *testing.B) {
	runFramework(b, benchParams(b, 6, byName(b, "secp160r1"), core.SorterUnlinkable), "fig2a-ecc-6")
}

func BenchmarkFig2a_ECC_n8(b *testing.B) {
	runFramework(b, benchParams(b, 8, byName(b, "secp160r1"), core.SorterUnlinkable), "fig2a-ecc-8")
}

func BenchmarkFig2a_DL_n4(b *testing.B) {
	runFramework(b, benchParams(b, 4, byName(b, "modp-1024"), core.SorterUnlinkable), "fig2a-dl-4")
}

func BenchmarkFig2a_DL_n6(b *testing.B) {
	runFramework(b, benchParams(b, 6, byName(b, "modp-1024"), core.SorterUnlinkable), "fig2a-dl-6")
}

func BenchmarkFig2a_SS_n5(b *testing.B) {
	runFramework(b, benchParams(b, 5, byName(b, "secp160r1"), core.SorterSecretSharing), "fig2a-ss-5")
}

func BenchmarkFig2a_SS_n7(b *testing.B) {
	runFramework(b, benchParams(b, 7, byName(b, "secp160r1"), core.SorterSecretSharing), "fig2a-ss-7")
}

// --- Fig. 2(b): vs attribute dimension m ---

func BenchmarkFig2b_ECC_m2(b *testing.B) {
	p := benchParams(b, 4, byName(b, "secp160r1"), core.SorterUnlinkable)
	p.M, p.T = 2, 1
	runFramework(b, p, "fig2b-m2")
}

func BenchmarkFig2b_ECC_m8(b *testing.B) {
	p := benchParams(b, 4, byName(b, "secp160r1"), core.SorterUnlinkable)
	p.M, p.T = 8, 4
	runFramework(b, p, "fig2b-m8")
}

// --- Fig. 2(c): vs attribute bit length d1 ---

func BenchmarkFig2c_ECC_d1_4(b *testing.B) {
	p := benchParams(b, 4, byName(b, "secp160r1"), core.SorterUnlinkable)
	p.D1 = 4
	runFramework(b, p, "fig2c-d4")
}

func BenchmarkFig2c_ECC_d1_10(b *testing.B) {
	p := benchParams(b, 4, byName(b, "secp160r1"), core.SorterUnlinkable)
	p.D1 = 10
	runFramework(b, p, "fig2c-d10")
}

// --- Fig. 2(d): vs mask bit length h ---

func BenchmarkFig2d_ECC_h4(b *testing.B) {
	p := benchParams(b, 4, byName(b, "secp160r1"), core.SorterUnlinkable)
	p.H = 4
	runFramework(b, p, "fig2d-h4")
}

func BenchmarkFig2d_ECC_h10(b *testing.B) {
	p := benchParams(b, 4, byName(b, "secp160r1"), core.SorterUnlinkable)
	p.H = 10
	runFramework(b, p, "fig2d-h10")
}

// --- Fig. 3(a): unlinkable sort vs security level ---

func benchSortLevel(b *testing.B, g group.Group) {
	b.Helper()
	cfg := unlinksort.Config{Group: g, L: 12}
	betas := []*big.Int{big.NewInt(100), big.NewInt(7), big.NewInt(4000), big.NewInt(255)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := unlinksort.RunCtx(context.Background(), cfg, betas, fmt.Sprintf("fig3a-%s-%d", g.Name(), i), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3a_Level80_ECC(b *testing.B)  { benchSortLevel(b, byName(b, "secp160r1")) }
func BenchmarkFig3a_Level80_DL(b *testing.B)   { benchSortLevel(b, byName(b, "modp-1024")) }
func BenchmarkFig3a_Level112_ECC(b *testing.B) { benchSortLevel(b, byName(b, "secp224r1")) }
func BenchmarkFig3a_Level112_DL(b *testing.B)  { benchSortLevel(b, byName(b, "modp-2048")) }
func BenchmarkFig3a_Level128_ECC(b *testing.B) { benchSortLevel(b, byName(b, "secp256r1")) }
func BenchmarkFig3a_Level128_DL(b *testing.B)  { benchSortLevel(b, byName(b, "modp-3072")) }

// --- Fig. 3(b): trace replay over the simulated network ---

func BenchmarkFig3b_NetworkReplay_n25(b *testing.B) {
	topo, err := netsim.NewRandomTopology(80, 320, fixedbig.NewDRBG("bench-topo"))
	if err != nil {
		b.Fatal(err)
	}
	s := costmodel.PaperDefaults()
	g := byName(b, "secp160r1")
	assign, err := netsim.RandomAssignment(topo, s.N+1, fixedbig.NewDRBG("bench-assign"))
	if err != nil {
		b.Fatal(err)
	}
	rep, err := netsim.NewReplay(topo, netsim.PaperLink(), assign)
	if err != nil {
		b.Fatal(err)
	}
	trace := costmodel.OursTrace(s, s.L(), g, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rep.Run(trace, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Section VI-B table: the primitive operations it counts ---

func benchExp(b *testing.B, g group.Group) {
	b.Helper()
	k, err := g.RandomScalar(fixedbig.NewDRBG("bench-exp-" + g.Name()))
	if err != nil {
		b.Fatal(err)
	}
	base := g.Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base = g.Exp(base, k)
	}
}

func BenchmarkTableVIB_Exp_Secp160r1(b *testing.B) { benchExp(b, byName(b, "secp160r1")) }
func BenchmarkTableVIB_Exp_MODP1024(b *testing.B)  { benchExp(b, byName(b, "modp-1024")) }
func BenchmarkTableVIB_Exp_Secp224r1(b *testing.B) { benchExp(b, byName(b, "secp224r1")) }
func BenchmarkTableVIB_Exp_MODP2048(b *testing.B)  { benchExp(b, byName(b, "modp-2048")) }
func BenchmarkTableVIB_Exp_Secp256r1(b *testing.B) { benchExp(b, byName(b, "secp256r1")) }
func BenchmarkTableVIB_Exp_MODP3072(b *testing.B)  { benchExp(b, byName(b, "modp-3072")) }

func BenchmarkTableVIB_SSFieldMul104(b *testing.B) {
	rng := fixedbig.NewDRBG("bench-fieldmul")
	p, err := fixedbig.Prime(rng, 104)
	if err != nil {
		b.Fatal(err)
	}
	x, err := fixedbig.RandInt(rng, p)
	if err != nil {
		b.Fatal(err)
	}
	y, err := fixedbig.RandInt(rng, p)
	if err != nil {
		b.Fatal(err)
	}
	acc := new(big.Int)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Mul(x, y)
		acc.Mod(acc, p)
		x.Set(acc)
	}
}

// --- Ablation benchmarks for the design choices DESIGN.md calls out ---

// benchSortAblation runs the standalone sorting protocol with a given
// configuration tweak.
func benchSortAblation(b *testing.B, mutate func(*unlinksort.Config)) {
	b.Helper()
	g, err := group.GenerateDLGroup(256, fixedbig.NewDRBG("ablation-bench-group"))
	if err != nil {
		b.Fatal(err)
	}
	cfg := unlinksort.Config{Group: g, L: 12}
	mutate(&cfg)
	betas := []*big.Int{big.NewInt(100), big.NewInt(7), big.NewInt(4000), big.NewInt(255), big.NewInt(90)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := unlinksort.RunCtx(context.Background(), cfg, betas, fmt.Sprintf("ablate-%d", i), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Cost of the τ re-randomisation that defeats the linkage attack
// (TestMissingReRandomizationLeaksBits): compare On vs Off.
func BenchmarkAblation_ReRandomize_On(b *testing.B) {
	benchSortAblation(b, func(c *unlinksort.Config) {})
}

func BenchmarkAblation_ReRandomize_Off(b *testing.B) {
	benchSortAblation(b, func(c *unlinksort.Config) { c.UnsafeNoReRandomize = true })
}

// Cost of the n-verifier key-knowledge proofs.
func BenchmarkAblation_Proofs_On(b *testing.B) {
	benchSortAblation(b, func(c *unlinksort.Config) {})
}

func BenchmarkAblation_Proofs_Off(b *testing.B) {
	benchSortAblation(b, func(c *unlinksort.Config) { c.SkipProofs = true })
}

// The limb curve kernel on secp160r1, the optimisation that restores the
// paper's ECC-beats-DL ordering; EXPERIMENTS.md records its ratio to
// math/big curve arithmetic.
func BenchmarkAblation_Secp160Fast(b *testing.B) { benchExp(b, byName(b, "secp160r1")) }

// --- Machine-readable perf snapshot (BENCH_groupranking.json) ---

// TestBenchSnapshot regenerates the committed perf snapshot in memory
// and checks its invariants: the registry-measured exponentiation
// counts must equal the cost model's closed forms (the counts never
// vary by machine, which is why the entries carry nothing else). It is
// also the drift gate (`make bench-compare` runs it alone): the
// snapshot must equal the committed BENCH_groupranking.json. Set
// BENCH_JSON=<path> to rewrite the committed file instead — `make
// bench-json` does this.
func TestBenchSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("instrumented framework runs are slow in -short mode")
	}
	snap, err := benchtab.CollectSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Schema != benchtab.SnapshotSchema {
		t.Fatalf("schema %d, want %d", snap.Schema, benchtab.SnapshotSchema)
	}
	if len(snap.Entries) < 3 {
		t.Fatalf("only %d entries", len(snap.Entries))
	}
	names := make(map[string]bool)
	for _, e := range snap.Entries {
		if names[e.Name] {
			t.Errorf("duplicate entry name %q", e.Name)
		}
		names[e.Name] = true
		if e.BytesOnWire <= 0 || e.MsgsOnWire <= 0 || e.Rounds <= 0 {
			t.Errorf("%s: non-positive measurement: %+v", e.Name, e)
		}
		if e.BytesPerOp != e.BytesOnWire/e.MsgsOnWire {
			t.Errorf("%s: bytes per op %d inconsistent with %d bytes over %d messages",
				e.Name, e.BytesPerOp, e.BytesOnWire, e.MsgsOnWire)
		}
		if e.ExpsPerParticipant != e.ExpsModel {
			t.Errorf("%s: measured %d exps per participant, model says %d",
				e.Name, e.ExpsPerParticipant, e.ExpsModel)
		}
		if e.Sorter == "secret-sharing" && e.ExpsPerParticipant != 0 {
			t.Errorf("%s: SS sorter performed %d group exps, want 0", e.Name, e.ExpsPerParticipant)
		}
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back benchtab.Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("snapshot does not round-trip: %v", err)
	}
	if path := os.Getenv("BENCH_JSON"); path != "" {
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
	} else {
		// The drift gate: the operation, message, byte and round counts
		// of a seeded run are deterministic, so ANY drift against the
		// committed file means the protocol's cost changed and the
		// snapshot (plus the cost model) must be updated deliberately.
		const path = "BENCH_groupranking.json"
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var committed benchtab.Snapshot
		if err := json.Unmarshal(raw, &committed); err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
		if committed.Schema != snap.Schema {
			t.Fatalf("committed snapshot has schema %d, current is %d", committed.Schema, snap.Schema)
		}
		want := make(map[string]benchtab.SnapshotEntry, len(committed.Entries))
		for _, e := range committed.Entries {
			want[e.Name] = e
		}
		for _, e := range snap.Entries {
			c, ok := want[e.Name]
			if !ok {
				t.Errorf("entry %q missing from the committed snapshot %s", e.Name, path)
				continue
			}
			if e.ExpsPerParticipant != c.ExpsPerParticipant {
				t.Errorf("%s: exps per participant drifted: committed %d, now %d",
					e.Name, c.ExpsPerParticipant, e.ExpsPerParticipant)
			}
			if e.ExpsModel != c.ExpsModel {
				t.Errorf("%s: model exps drifted: committed %d, now %d", e.Name, c.ExpsModel, e.ExpsModel)
			}
			if e.MsgsOnWire != c.MsgsOnWire {
				t.Errorf("%s: messages on wire drifted: committed %d, now %d",
					e.Name, c.MsgsOnWire, e.MsgsOnWire)
			}
			if e.BytesOnWire != c.BytesOnWire {
				t.Errorf("%s: bytes on wire drifted: committed %d, now %d",
					e.Name, c.BytesOnWire, e.BytesOnWire)
			}
			if e.Rounds != c.Rounds {
				t.Errorf("%s: rounds drifted: committed %d, now %d", e.Name, c.Rounds, e.Rounds)
			}
		}
	}
}
