package groupranking

import (
	"context"
	"math/big"

	"groupranking/internal/core"
	"groupranking/internal/fixedbig"
	"groupranking/internal/obsv"
	"groupranking/internal/transport"
	"groupranking/internal/unlinksort"
)

// SortOptions tunes UnlinkableSort.
type SortOptions struct {
	// GroupName picks the DDH group (default secp160r1).
	GroupName string
	// Bits is the value bit width; 0 derives it from the largest value.
	Bits int
	// Seed makes the run deterministic; empty draws a fresh random seed.
	Seed string

	// Runtime holds Timeout and Workers, shared with Options. Timeout 0
	// means no deadline in-process and 2 minutes for
	// UnlinkableSortParty, where it also bounds each blocking receive
	// on the TCP mesh.
	Runtime
	// Observer, when non-nil, records per-party phase spans and
	// counters: UnlinkableSort fills one party per value,
	// UnlinkableSortParty only this party's slot.
	Observer *Observer
}

// SortResult is the outcome of an in-process sorting run with the same
// transport statistics Result reports for the full framework.
type SortResult struct {
	// Ranks holds each party's rank (1 = largest; equal values share a
	// rank).
	Ranks []int
	// BytesOnWire is the total traffic across all parties.
	BytesOnWire int64
	// Rounds is the number of distinct communication rounds used.
	Rounds int
}

// UnlinkableSort runs the paper's identity-unlinkable multiparty sorting
// protocol over the given values, one in-process party per value. The
// returned SortResult carries each party's rank (1 = largest; equal
// values share a rank) plus the transport statistics the framework's
// Result exposes.
//
// The privacy property this simulates: each party learns only its own
// rank, and an adversary controlling up to n−2 parties cannot link an
// honest party's value to its identity as long as that party's rank
// stays hidden.
//
// The run aborts cleanly when ctx is done; opts.Timeout, when set,
// composes with ctx — whichever deadline expires first wins.
func UnlinkableSort(ctx context.Context, values []uint64, opts SortOptions) (*SortResult, error) {
	o, err := opts.withDefaults(values)
	if err != nil {
		return nil, err
	}
	g, err := core.GroupByName(o.GroupName)
	if err != nil {
		return nil, err
	}
	betas := make([]*big.Int, len(values))
	for i, v := range values {
		betas[i] = new(big.Int).SetUint64(v)
	}
	ctx = obsv.WithRegistry(ctx, o.Observer)
	if o.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.Timeout)
		defer cancel()
	}
	results, fab, err := unlinksort.RunCtx(ctx, unlinksort.Config{Group: g, L: o.Bits, Workers: o.Workers}, betas, o.Seed, nil)
	if err != nil {
		return nil, err
	}
	ranks := make([]int, len(results))
	for i, r := range results {
		ranks[i] = r.Rank
	}
	stats := fab.Stats()
	return &SortResult{
		Ranks:       ranks,
		BytesOnWire: stats.TotalBytes(),
		Rounds:      stats.DistinctRounds,
	}, nil
}

// UnlinkableSortParty runs one party of the identity-unlinkable sorting
// protocol over real TCP: addrs lists every party's listen address
// (this party listens on addrs[me]), value is this party's private
// input, and the returned rank is all this party learns. All parties
// must agree on opts.Bits (it is required here: unlike UnlinkableSort,
// no single process sees all values to derive a width from) and call
// concurrently. This is the deployment entry point for the paper's
// standalone sorting primitive; RankParticipantParty is its counterpart
// for the full framework.
//
// The party runs through unlinksort.RunParty, the runner UnlinkableSort
// runs once per in-process party, so failures come back as the same
// typed *AbortError. Its randomness is a DRBG keyed by opts.Seed, or
// without one by a seed drawn locally (fixedbig.DrawSeed) that never
// leaves the process; a seed-fixed party draws exactly what the same
// party of a seed-fixed UnlinkableSort draws. opts.Timeout (default 2
// minutes) composes with ctx — whichever deadline expires first wins.
func UnlinkableSortParty(ctx context.Context, addrs []string, me int, value uint64, opts SortOptions) (int, error) {
	o, err := opts.withPartyDefaults()
	if err != nil {
		return 0, err
	}
	g, err := core.GroupByName(o.GroupName)
	if err != nil {
		return 0, err
	}
	seed, err := fixedbig.DrawSeed(o.Seed)
	if err != nil {
		return 0, err
	}
	fab, err := transport.NewTCPFabric(addrs, me, o.Timeout)
	if err != nil {
		return 0, err
	}
	defer fab.Close()
	ctx, cancel := context.WithTimeout(obsv.WithRegistry(ctx, o.Observer), o.Timeout)
	defer cancel()
	res, err := unlinksort.RunParty(ctx, unlinksort.Config{Group: g, L: o.Bits, Workers: o.Workers}, me, fab,
		new(big.Int).SetUint64(value), seed)
	return res.Rank, err
}
