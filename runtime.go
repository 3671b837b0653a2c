package groupranking

import (
	"fmt"
	"time"
)

// Runtime bundles the two execution knobs every entry point honours —
// the deadline and the crypto parallelism — as opposed to WHAT is
// computed (group, bit widths, k, sorter: those live in Options /
// SortOptions directly). Options, SortOptions and the rankd service
// config (internal/service.Config) embed it, so the fields read the
// same everywhere (opts.Timeout, opts.Workers). The knobs only some
// entry points honour (Recovery, Faults, Observer, Telemetry) sit on
// the types of those entry points alone.
type Runtime struct {
	// Timeout bounds the whole run; 0 means the entry point's default
	// (no deadline in-process, 2 minutes for the distributed parties,
	// where it also bounds each blocking receive and write on the mesh).
	// When the deadline fires, every party aborts with a typed error
	// instead of hanging.
	Timeout time.Duration
	// Workers bounds the goroutines each party's crypto hot loops fan
	// out on: 0 uses every CPU, 1 forces the serial reference path.
	// Randomness is drawn serially regardless, so rankings, transcripts
	// and operation counts are identical at every setting.
	Workers int
}

// Validate rejects nonsense runtime settings at the entry point instead
// of letting them silently change meaning deeper in the stack: a
// negative Timeout would otherwise be "defaulted" like zero, and a
// negative Workers would be treated as serial. Every public entry
// point, the rankd daemon config (internal/service.Config) and the
// command-line front end (internal/cli, under grouprank, rankparty and
// rankd) run it, so the library and the binaries reject the same inputs
// with the same meaning.
func (r Runtime) Validate() error {
	if r.Timeout < 0 {
		return fmt.Errorf("groupranking: Timeout %v is negative (0 means the default deadline)", r.Timeout)
	}
	if r.Workers < 0 {
		return fmt.Errorf("groupranking: workers=%d negative (0 means every CPU)", r.Workers)
	}
	return nil
}

// Validate rejects a negative Grace, which would blame a reconnecting
// peer instantly. A nil RecoveryOptions (recovery off) is valid. The
// party entry points, the rankd daemon config and internal/cli all run
// it, like Runtime.Validate.
func (r *RecoveryOptions) Validate() error {
	if r != nil && r.Grace < 0 {
		return fmt.Errorf("groupranking: Recovery.Grace %v is negative (0 means the 15s default)", r.Grace)
	}
	return nil
}
