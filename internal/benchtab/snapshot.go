package benchtab

// The machine-readable bench snapshot (BENCH_groupranking.json): a
// fixed set of small-n instrumented runs of the REAL protocol stack,
// each recording the observability registry's measured
// exponentiation/message/byte counts next to the cost model's
// predictions. The per-configuration entries are exact counts only:
// wall-clock numbers have one home, bench/ (BENCHMARK.json).
// Committing the snapshot tracks the count trajectory across commits
// as a diffable artifact; TestBenchSnapshot regenerates it and asserts
// measured == model.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"groupranking/internal/core"
	"groupranking/internal/costmodel"
	"groupranking/internal/fixedbig"
	"groupranking/internal/group"
	"groupranking/internal/obsv"
	"groupranking/internal/workload"
)

// SnapshotSchema identifies the JSON layout; bump on breaking changes
// so downstream diff tooling can refuse to compare across layouts.
const SnapshotSchema = 1

// SnapshotEntry is one instrumented configuration of the snapshot.
type SnapshotEntry struct {
	// Name is the stable configuration key diffs are joined on.
	Name   string `json:"name"`
	Group  string `json:"group"`
	Sorter string `json:"sorter"`
	N      int    `json:"n"`
	M      int    `json:"m"`
	// L is the derived comparison bit width l = BetaBits.
	L int `json:"l"`
	// ExpsPerParticipant is the registry-measured group-exponentiation
	// count of participant 1 (all participants perform the same count —
	// the crossval suite asserts this); ExpsModel is the cost model's
	// closed form, 0 for the secret-sharing sorter which uses no group.
	ExpsPerParticipant int64 `json:"exps_per_participant"`
	ExpsModel          int64 `json:"exps_model"`
	// BytesOnWire / MsgsOnWire / Rounds total the fabric's counters
	// across all parties.
	BytesOnWire int64 `json:"bytes_on_wire"`
	MsgsOnWire  int64 `json:"msgs_on_wire"`
	Rounds      int   `json:"rounds"`
	// BytesPerOp is the average wire cost of one transported message
	// (BytesOnWire / MsgsOnWire, rounded down). The message count is
	// pinned by the drift gate, so this column isolates per-message
	// encoding efficiency — it is what moves when the wire format
	// changes and nothing else does.
	BytesPerOp int64 `json:"bytes_per_op"`
}

// Snapshot is the full BENCH_*.json document.
type Snapshot struct {
	Schema  int             `json:"schema"`
	GoOS    string          `json:"goos"`
	GoArch  string          `json:"goarch"`
	Entries []SnapshotEntry `json:"entries"`
}

// snapshotConfigs mirrors the laptop-scale benchmark grid of
// bench_test.go (M=4 T=2 D1=6 D2=4 H=6 K=2): small enough to finish in
// seconds, large enough that the exp/byte counts exercise every phase.
var snapshotConfigs = []struct {
	name      string
	groupName string
	sorter    core.Sorter
	n         int
}{
	{name: "ours-ecc-n4", groupName: "secp160r1", sorter: core.SorterUnlinkable, n: 4},
	{name: "ours-ecc-n6", groupName: "secp160r1", sorter: core.SorterUnlinkable, n: 6},
	{name: "ours-dl-n4", groupName: "toy-dl-256", sorter: core.SorterUnlinkable, n: 4},
	{name: "ss-ecc-n5", groupName: "secp160r1", sorter: core.SorterSecretSharing, n: 5},
}

// CollectSnapshot runs every snapshot configuration and returns the
// document. It needs no primitive-timing calibration, so `benchtab
// -json` skips the expensive startup measurement New performs.
func CollectSnapshot() (*Snapshot, error) {
	snap := &Snapshot{Schema: SnapshotSchema, GoOS: runtime.GOOS, GoArch: runtime.GOARCH}
	for _, cfg := range snapshotConfigs {
		g, err := group.ByName(cfg.groupName)
		if err != nil {
			return nil, err
		}
		e, err := runSnapshotConfig(cfg.name, g, cfg.sorter, cfg.n)
		if err != nil {
			return nil, fmt.Errorf("benchtab: snapshot %s: %w", cfg.name, err)
		}
		snap.Entries = append(snap.Entries, e)
	}
	return snap, nil
}

// WriteSnapshot collects the snapshot and writes it as indented JSON.
func WriteSnapshot(w io.Writer) error {
	snap, err := CollectSnapshot()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

func runSnapshotConfig(name string, g group.Group, sorter core.Sorter, n int) (SnapshotEntry, error) {
	params := core.Params{
		N: n, M: 4, T: 2, D1: 6, D2: 4, H: 6, K: 2,
		Group: g, Sorter: sorter,
	}
	in, err := snapshotInputs(params, "bench-snapshot-"+name)
	if err != nil {
		return SnapshotEntry{}, err
	}
	reg := obsv.NewRegistry()
	ctx := obsv.WithRegistry(context.Background(), reg)
	_, fab, err := core.RunCtx(ctx, params, in, "bench-snapshot-run-"+name, nil)
	if err != nil {
		return SnapshotEntry{}, err
	}
	stats := fab.Stats()
	var msgs int64
	for _, v := range stats.MessagesSent {
		msgs += v
	}
	l := params.BetaBits()
	var model int64
	if sorter == core.SorterUnlinkable {
		model = costmodel.ParticipantExps(n, l)
	}
	return SnapshotEntry{
		Name:               name,
		Group:              g.Name(),
		Sorter:             sorter.String(),
		N:                  n,
		M:                  params.M,
		L:                  l,
		ExpsPerParticipant: reg.PartyTotal(1, obsv.OpGroupExp),
		ExpsModel:          model,
		BytesOnWire:        stats.TotalBytes(),
		MsgsOnWire:         msgs,
		Rounds:             stats.DistinctRounds,
		BytesPerOp:         stats.TotalBytes() / msgs,
	}, nil
}

func snapshotInputs(params core.Params, seed string) (core.Inputs, error) {
	q, err := workload.Uniform(params.M, params.T)
	if err != nil {
		return core.Inputs{}, err
	}
	rng := fixedbig.NewDRBG(seed)
	crit, err := workload.RandomCriterion(q, params.D1, params.D2, rng)
	if err != nil {
		return core.Inputs{}, err
	}
	profiles, err := workload.RandomProfiles(q, params.N, params.D1, rng)
	if err != nil {
		return core.Inputs{}, err
	}
	return core.Inputs{Questionnaire: q, Criterion: crit, Profiles: profiles}, nil
}
