package groupranking

import (
	"cmp"
	"fmt"
	"math/big"

	"groupranking/internal/core"
	"groupranking/internal/fixedbig"
)

// The option resolvers shared by every entry point — Rank, the sorting
// layer and the distributed party runners. The protocol defaults live
// in internal/core (core.Params.WithDefaults, core.GroupByName,
// core.DefaultTimeout), shared with rankd, so they cannot drift between
// tiers.

// params resolves the options into the protocol parameters of a run
// with n participants over q: the runtime knobs and the recovery
// options are checked, and every zero protocol setting takes core's
// default.
func (o Options) params(q *Questionnaire, n int) (core.Params, error) {
	if q == nil {
		return core.Params{}, fmt.Errorf("groupranking: missing questionnaire")
	}
	if err := o.Runtime.Validate(); err != nil {
		return core.Params{}, err
	}
	if err := o.Recovery.Validate(); err != nil {
		return core.Params{}, err
	}
	g, err := core.GroupByName(o.GroupName)
	if err != nil {
		return core.Params{}, err
	}
	params := core.Params{
		N: n, M: q.M(), T: q.T(),
		D1: o.D1, D2: o.D2, H: o.H, K: o.K,
		Group: g, Sorter: o.Sorter,
		ProveDecryption: o.ProveDecryption, Workers: o.Workers,
		WireCodec: o.WireCodec,
	}.WithDefaults()
	return params, params.Validate()
}

// deriveBits resolves a sorting bit width: the explicit setting when
// non-zero, otherwise the width of the largest value (at least 1).
func deriveBits(bits int, values []uint64) int {
	if bits != 0 {
		return bits
	}
	for _, v := range values {
		if b := new(big.Int).SetUint64(v).BitLen(); b > bits {
			bits = b
		}
	}
	if bits == 0 {
		bits = 1
	}
	return bits
}

// validate checks the resolved sort options the same way Options is
// checked by core.Params.Validate: out-of-range settings fail with a
// descriptive error instead of propagating garbage into the protocol.
// The runtime knobs share Runtime.Validate with the framework options.
func (o SortOptions) validate() error {
	if o.Bits < 1 || o.Bits > 64 {
		return fmt.Errorf("groupranking: bits=%d outside [1, 64]", o.Bits)
	}
	return o.Runtime.Validate()
}

// withDefaults resolves Bits/Seed for an in-process sort over the
// given values and validates the result.
func (o SortOptions) withDefaults(values []uint64) (SortOptions, error) {
	if len(values) < 2 {
		return o, fmt.Errorf("groupranking: need at least two values, got %d", len(values))
	}
	o.Bits = deriveBits(o.Bits, values)
	if err := o.validate(); err != nil {
		return o, err
	}
	var err error
	o.Seed, err = fixedbig.DrawSeed(o.Seed)
	return o, err
}

// withPartyDefaults resolves the options for one distributed party:
// unlike the in-process form, no single process sees all values, so
// Bits is required rather than derived, and the timeout gets the
// distributed default. The seed is left as given; UnlinkableSortParty
// resolves an empty one with fixedbig.DrawSeed just before the run.
func (o SortOptions) withPartyDefaults() (SortOptions, error) {
	if o.Bits <= 0 {
		return o, fmt.Errorf("groupranking: distributed sorting requires an agreed Bits value")
	}
	if err := o.validate(); err != nil {
		return o, err
	}
	o.Timeout = cmp.Or(o.Timeout, core.DefaultTimeout)
	return o, nil
}
