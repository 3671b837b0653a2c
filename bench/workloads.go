package main

import (
	"fmt"
	"slices"

	"groupranking"
	"groupranking/internal/fixedbig"
	"groupranking/internal/workload"
)

// The shape every workload shares (ISSUE 11): m=4 attributes of which
// t=2 are equal-to, 6-bit values, 4-bit weights, a 6-bit mask — so the
// masked gain is l=27 bits wide — and a top-2 cut. Everything else is
// the library default.
const (
	attrM  = 4
	attrT  = 2
	bitsD1 = 6
	bitsD2 = 4
	bitsH  = 6
	topK   = 2
)

// kind says through which public entry point a workload drives the
// system.
type kind int

const (
	inProcess  kind = iota // groupranking.Rank
	tcpParties             // RankInitiatorParty / RankParticipantParty over loopback
	rankdMesh              // rankd processes through groupranking.Client
)

type workloadSpec struct {
	name    string
	why     string // one line, copied into BENCHMARK.json
	kind    kind
	n       int    // participants
	group   string // Options.GroupName; "" is the library default
	sorter  groupranking.Sorter
	clients int // closed-loop callers
	warmups int // untimed rankings that end set-up
	// rssRankings is how many verified rankings into a section resident
	// memory is sampled: about half of what the reference host (2 vCPU)
	// verifies in 20 s.
	rssRankings int
}

var workloads = []workloadSpec{
	{
		name: "rank_ecc160", kind: inProcess, n: 4, group: "secp160r1",
		sorter: groupranking.Unlinkable, clients: 1, warmups: 1, rssRankings: 6,
		why: "paper's headline ECC config through Rank() by group name: ~5k group exps per ranking over an in-memory fabric, so group/elgamal/zkp/unlinksort/kernel do the work, transport/codec/journal none",
	},
	{
		name: "rank_p256", kind: inProcess, n: 3, group: "secp256r1",
		sorter: groupranking.Unlinkable, clients: 1, warmups: 1, rssRankings: 8,
		why: "same protocol layers on the generic math/big curve path (no limb field, no secp160 comb): a secp160-only kernel change must not move it, a 4-limb field or protocol-level batching must",
	},
	{
		name: "party_tcp_ss", kind: tcpParties, n: 5,
		sorter: groupranking.SecretSharing, clients: 1, warmups: 1, rssRankings: 100,
		why: "six one-shot TCP parties, secret-sharing sorter: no group exps, ~3.9k small messages and a fresh mesh per ranking, so transport/wirecodec/ssmpc dominate and crypto-kernel work must not move it",
	},
	{
		name: "rankd_durable_ss", kind: rankdMesh, n: 3, group: "toy-dl-256",
		sorter: groupranking.SecretSharing, clients: 2, warmups: 10, rssRankings: 300,
		why: "the same message-heavy traffic through four durable rankd processes: session mux, per-session write-ahead journal, fsync'd session store, HTTP lifecycle; where journal or link-layer changes show",
	},
}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// groupName is the DDH group the workload's rankings resolve.
func (w workloadSpec) groupName() string {
	if w.group == "" {
		return "secp160r1" // groupranking's documented default
	}
	return w.group
}

func (w workloadSpec) options(in inputs) groupranking.Options {
	return groupranking.Options{
		GroupName: w.group, K: topK, D1: bitsD1, D2: bitsD2, H: bitsH,
		Sorter: w.sorter, Seed: in.id,
	}
}

// inputs is one ranking's generated input: the program under test sees
// nothing of the seed but these.
type inputs struct {
	id        string // "<seed>/<workload>/<i>": DRBG key, protocol seed and trace id
	q         *groupranking.Questionnaire
	criterion groupranking.Criterion
	profiles  []groupranking.Profile
	expected  []int // plaintext ground truth, one rank per participant
}

// inputs generates ranking i of a run. Profiles are redrawn from the
// same stream until all gains differ: the protocol splits a gain tie by
// its masking offsets, so only tie-free inputs have one right answer.
func (w workloadSpec) inputs(seed string, i int) (inputs, error) {
	in := inputs{id: fmt.Sprintf("%s/%s/%d", seed, w.name, i)}
	rng := fixedbig.NewDRBG(in.id)
	var err error
	if in.q, err = workload.Uniform(attrM, attrT); err != nil {
		return in, err
	}
	if in.criterion, err = workload.RandomCriterion(in.q, bitsD1, bitsD2, rng); err != nil {
		return in, err
	}
	for {
		if in.profiles, err = workload.RandomProfiles(in.q, w.n, bitsD1, rng); err != nil {
			return in, err
		}
		if in.expected, err = groupranking.ExpectedRanks(in.q, in.criterion, in.profiles); err != nil {
			return in, err
		}
		sorted := slices.Clone(in.expected)
		slices.Sort(sorted)
		if len(slices.Compact(sorted)) == w.n {
			return in, nil
		}
	}
}

// submission is one top-k disclosure in the form all three result
// types reduce to.
type submission struct {
	participant int
	claimedRank int
	values      []int64
}

// verify checks one ranking against the plaintext ground truth: every
// participant's rank, and that exactly the top k submitted their own
// profile under their true rank.
func (in inputs) verify(ranks []int, subs []submission) error {
	if !slices.Equal(ranks, in.expected) {
		return fmt.Errorf("ranks %v differ from the ground truth %v", ranks, in.expected)
	}
	if len(subs) != topK {
		return fmt.Errorf("%d submissions, want the top %d", len(subs), topK)
	}
	seen := map[int]bool{}
	for _, s := range subs {
		switch {
		case s.participant < 0 || s.participant >= len(in.expected) || seen[s.participant]:
			return fmt.Errorf("submission from unknown or repeated participant %d", s.participant)
		case in.expected[s.participant] > topK:
			return fmt.Errorf("participant %d submitted but ranks %d", s.participant, in.expected[s.participant])
		case s.claimedRank != in.expected[s.participant]:
			return fmt.Errorf("participant %d claimed rank %d, ground truth %d", s.participant, s.claimedRank, in.expected[s.participant])
		case !slices.Equal(s.values, in.profiles[s.participant].Values):
			return fmt.Errorf("participant %d submitted %v, its profile is %v", s.participant, s.values, in.profiles[s.participant].Values)
		}
		seen[s.participant] = true
	}
	return nil
}
