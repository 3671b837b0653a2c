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
	"groupranking/internal/cli"
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
	var shared cli.Flags
	shared.Protocol(flag.CommandLine)
	shared.Observability(flag.CommandLine)
	shared.Faults(flag.CommandLine)
	var (
		scenario = flag.String("scenario", "", "JSON scenario file (overrides -n/-m/-t)")
		preset   = flag.String("preset", "", "named scenario: marketing, matchmaking or recruiting (overrides -m/-t/-d1/-d2)")
		n        = flag.Int("n", 8, "participants (generated workload)")
		m        = flag.Int("m", 4, "attribute dimension (generated workload)")
		t        = flag.Int("t", 2, "number of equal-to attributes (generated workload)")
	)
	flag.Parse()
	settings, err := shared.Resolve()
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	opts := settings.Options

	var (
		q        *groupranking.Questionnaire
		crit     groupranking.Criterion
		profiles []groupranking.Profile
	)
	switch {
	case *scenario != "":
		q, crit, profiles, err = loadScenario(*scenario, &opts.K)
	case *preset != "":
		q, crit, profiles, err = fromPreset(*preset, *n, opts.Seed, &opts.D1, &opts.D2)
	default:
		q, crit, profiles, err = generate(*n, *m, *t, opts.D1, opts.D2, opts.Seed)
	}
	if err != nil {
		log.Fatal(err)
	}
	if opts.Faults != nil && opts.Timeout == 0 {
		// A lossy run with no deadline could wait forever on a message
		// that was dropped; a default deadline keeps aborts prompt.
		opts.Timeout = 30 * time.Second
	}

	res, err := groupranking.Rank(context.Background(), q, crit, profiles, opts)
	if err != nil {
		shared.Report(opts.Observer, os.Stderr)
		var abort *groupranking.AbortError
		if errors.As(err, &abort) {
			log.Fatalf("run aborted cleanly (party %d, phase %q, round %d): %v",
				abort.Party, abort.Phase, abort.Round, err)
		}
		log.Fatal(err)
	}

	fmt.Printf("group: %s, sorter: %s, participants: %d, k: %d\n\n", opts.GroupName, opts.Sorter, len(profiles), opts.K)
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
	shared.Report(opts.Observer, os.Stdout)
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
