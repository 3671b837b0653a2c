// Command grouprank runs one instance of the privacy-preserving
// group-ranking framework, either on a JSON scenario file or on a
// randomly generated workload, and prints every party's view.
//
// Usage:
//
//	grouprank -scenario scenario.json
//	grouprank -n 10 -m 6 -t 3 -k 3 -group secp160r1 -seed demo
//
// Scenario file format:
//
//	{
//	  "attributes": [{"name": "age", "kind": "equal-to"},
//	                 {"name": "friends", "kind": "greater-than"}],
//	  "criterion": {"values": [30, 0], "weights": [2, 1]},
//	  "profiles": [[31, 40], [25, 90]],
//	  "k": 1
//	}
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"groupranking"
	"groupranking/internal/core"
	"groupranking/internal/fixedbig"
	"groupranking/internal/workload"
)

type scenarioFile struct {
	Attributes []struct {
		Name string `json:"name"`
		Kind string `json:"kind"`
	} `json:"attributes"`
	Criterion struct {
		Values  []int64 `json:"values"`
		Weights []int64 `json:"weights"`
	} `json:"criterion"`
	Profiles [][]int64 `json:"profiles"`
	K        int       `json:"k"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("grouprank: ")
	var (
		scenario  = flag.String("scenario", "", "JSON scenario file (overrides -n/-m/-t)")
		preset    = flag.String("preset", "", "named scenario: marketing, matchmaking or recruiting (overrides -m/-t/-d1/-d2)")
		n         = flag.Int("n", 8, "participants (generated workload)")
		m         = flag.Int("m", 4, "attribute dimension (generated workload)")
		t         = flag.Int("t", 2, "number of equal-to attributes (generated workload)")
		k         = flag.Int("k", 3, "top-k cut")
		d1        = flag.Int("d1", 8, "attribute bits")
		d2        = flag.Int("d2", 5, "weight bits")
		h         = flag.Int("h", 8, "mask bits")
		groupName = flag.String("group", core.DefaultGroupName, "DDH group (modp-1024/2048/3072, secp160r1/224r1/256r1, toy-dl-256)")
		sorter    = flag.String("sorter", "unlinkable", "phase-2 protocol: unlinkable or secret-sharing")
		seed      = flag.String("seed", "", "deterministic seed (empty = random)")
		timeout   = flag.Duration("timeout", 0, "whole-run deadline (0 = none); expiry aborts cleanly")
		workers   = flag.Int("workers", 0, "goroutines per party for crypto hot loops (0 = all CPUs, 1 = serial)")
		traceFile = flag.String("trace", "", "write a JSONL span trace to this file (- for stderr); on abort the partial trace is still written")
		metrics   = flag.Bool("metrics", false, "print the per-phase observability summary table after the run")

		faultSeed    = flag.Int64("fault-seed", 0, "seed for the fault-injection schedule (reproducible chaos)")
		faultDrop    = flag.Float64("fault-drop", 0, "per-message drop probability [0, 1]")
		faultDup     = flag.Float64("fault-dup", 0, "per-message duplication probability [0, 1]")
		faultReorder = flag.Float64("fault-reorder", 0, "per-message reorder probability [0, 1]")
		faultCorrupt = flag.Float64("fault-corrupt", 0, "per-message corruption probability [0, 1]")
		faultDelay   = flag.Float64("fault-delay", 0, "per-message delay probability [0, 1]")
		crashParty   = flag.Int("fault-crash-party", -1, "party index to crash (-1 = none; 0 = initiator)")
		crashRound   = flag.Int("fault-crash-round", 0, "round at which the crashed party dies")
	)
	flag.Parse()

	var (
		q        *groupranking.Questionnaire
		crit     groupranking.Criterion
		profiles []groupranking.Profile
		err      error
	)
	switch {
	case *scenario != "":
		q, crit, profiles, err = loadScenario(*scenario, k)
	case *preset != "":
		q, crit, profiles, err = fromPreset(*preset, *n, *seed, d1, d2)
	default:
		q, crit, profiles, err = generate(*n, *m, *t, *d1, *d2, *seed)
	}
	if err != nil {
		log.Fatal(err)
	}

	opts := groupranking.Options{
		GroupName: *groupName,
		K:         *k,
		D1:        *d1, D2: *d2, H: *h,
		Seed:    *seed,
		Runtime: groupranking.Runtime{Timeout: *timeout, Workers: *workers},
	}
	if *faultDrop > 0 || *faultDup > 0 || *faultReorder > 0 || *faultCorrupt > 0 ||
		*faultDelay > 0 || *crashParty >= 0 {
		plan := &groupranking.FaultPlan{
			Seed:      *faultSeed,
			Drop:      *faultDrop,
			Duplicate: *faultDup,
			Reorder:   *faultReorder,
			Corrupt:   *faultCorrupt,
			Delay:     *faultDelay,
		}
		if *crashParty >= 0 {
			plan.Rules = append(plan.Rules, groupranking.CrashAt(*crashParty, *crashRound))
		}
		opts.Faults = plan
		if opts.Timeout == 0 {
			// A lossy run with no deadline could wait forever on a message
			// that was dropped; a default deadline keeps aborts prompt.
			opts.Timeout = 30 * time.Second
		}
	}
	switch *sorter {
	case "unlinkable":
		opts.Sorter = groupranking.Unlinkable
	case "secret-sharing":
		opts.Sorter = groupranking.SecretSharing
	default:
		log.Fatalf("unknown sorter %q", *sorter)
	}

	var obs *groupranking.Observer
	if *traceFile != "" || *metrics {
		obs = groupranking.NewObserver()
		opts.Observer = obs
	}
	writeTrace := func() {
		if *traceFile == "" {
			return
		}
		out := os.Stderr
		if *traceFile != "-" {
			f, err := os.Create(*traceFile)
			if err != nil {
				log.Printf("trace: %v", err)
				return
			}
			defer f.Close()
			out = f
		}
		if err := obs.WriteJSONL(out); err != nil {
			log.Printf("trace: %v", err)
		}
	}

	res, err := groupranking.Rank(context.Background(), q, crit, profiles, opts)
	if err != nil {
		// The Observer outlives the failed run: dump the partial trace so
		// the typed abort diagnostics come with the timeline that led to
		// the failure.
		writeTrace()
		var abort *groupranking.AbortError
		if errors.As(err, &abort) {
			if *metrics {
				obs.WriteSummary(os.Stderr)
			}
			log.Fatalf("run aborted cleanly (party %d, phase %q, round %d): %v",
				abort.Party, abort.Phase, abort.Round, err)
		}
		log.Fatal(err)
	}
	writeTrace()

	fmt.Printf("group: %s, sorter: %s, participants: %d, k: %d\n\n", *groupName, *sorter, len(profiles), opts.K)
	fmt.Println("participant ranks (each participant only learns its own):")
	for j, r := range res.Ranks {
		fmt.Printf("  P%-3d rank %d\n", j+1, r)
	}
	fmt.Println("\ninitiator's received submissions:")
	for _, s := range res.Submissions {
		fmt.Printf("  rank %d: P%d, profile %v, recomputed gain %s\n",
			s.ClaimedRank, s.Participant+1, s.Profile.Values, s.Gain)
	}
	if len(res.Suspicious) > 0 {
		fmt.Printf("\nover-claim detection flagged: %v\n", res.Suspicious)
	}
	fmt.Printf("\ntraffic: %d bytes, %d communication rounds\n", res.BytesOnWire, res.Rounds)
	if *metrics {
		fmt.Println()
		if err := obs.WriteSummary(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}

func loadScenario(path string, k *int) (*groupranking.Questionnaire, groupranking.Criterion, []groupranking.Profile, error) {
	var empty groupranking.Criterion
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, empty, nil, err
	}
	var sf scenarioFile
	if err := json.Unmarshal(data, &sf); err != nil {
		return nil, empty, nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	attrs := make([]groupranking.Attribute, len(sf.Attributes))
	for i, a := range sf.Attributes {
		attrs[i].Name = a.Name
		switch a.Kind {
		case "equal-to":
			attrs[i].Kind = groupranking.EqualTo
		case "greater-than":
			attrs[i].Kind = groupranking.GreaterThan
		default:
			return nil, empty, nil, fmt.Errorf("attribute %q: unknown kind %q", a.Name, a.Kind)
		}
	}
	q, err := groupranking.NewQuestionnaire(attrs)
	if err != nil {
		return nil, empty, nil, err
	}
	if len(sf.Criterion.Values) != q.M() || len(sf.Criterion.Weights) != q.M() {
		return nil, empty, nil, fmt.Errorf("criterion has %d values and %d weights for %d attributes",
			len(sf.Criterion.Values), len(sf.Criterion.Weights), q.M())
	}
	profiles := make([]groupranking.Profile, len(sf.Profiles))
	for i, vals := range sf.Profiles {
		if len(vals) != q.M() {
			return nil, empty, nil, fmt.Errorf("profile %d has %d values for %d attributes", i, len(vals), q.M())
		}
		profiles[i] = groupranking.Profile{Values: vals}
	}
	if sf.K > 0 {
		*k = sf.K
	}
	return q, groupranking.Criterion{Values: sf.Criterion.Values, Weights: sf.Criterion.Weights}, profiles, nil
}

func generate(n, m, t, d1, d2 int, seed string) (*groupranking.Questionnaire, groupranking.Criterion, []groupranking.Profile, error) {
	var empty groupranking.Criterion
	q, err := workload.Uniform(m, t)
	if err != nil {
		return nil, empty, nil, err
	}
	rng := fixedbig.NewDRBG("grouprank-workload-" + seed)
	crit, err := workload.RandomCriterion(q, d1, d2, rng)
	if err != nil {
		return nil, empty, nil, err
	}
	profiles, err := workload.RandomProfiles(q, n, d1, rng)
	if err != nil {
		return nil, empty, nil, err
	}
	return q, crit, profiles, nil
}

// fromPreset instantiates a named workload preset with n sampled
// participants, adopting the preset's bit widths.
func fromPreset(name string, n int, seed string, d1, d2 *int) (*groupranking.Questionnaire, groupranking.Criterion, []groupranking.Profile, error) {
	var empty groupranking.Criterion
	p, err := workload.PresetByName(name)
	if err != nil {
		return nil, empty, nil, err
	}
	rng := fixedbig.NewDRBG("grouprank-preset-" + name + "-" + seed)
	profiles, err := p.SampleProfiles(n, rng)
	if err != nil {
		return nil, empty, nil, err
	}
	*d1, *d2 = p.Bits()
	return p.Questionnaire(), p.Criterion(), profiles, nil
}
