package groupranking

import (
	"fmt"
	"time"
)

// Runtime bundles the knobs that tune HOW a run executes — deadlines,
// parallelism, fault injection, observability, crash recovery — as
// opposed to WHAT is computed (group, bit widths, k, sorter: those live
// in Options / SortOptions directly). Options and SortOptions embed it,
// so the fields read the same as before (opts.Timeout, opts.Observer);
// the rankd service config (internal/service.Config) embeds the same
// struct verbatim instead of re-declaring the knobs.
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
	// Recovery, when non-nil, enables the crash-recovery runtime for the
	// distributed framework parties (RankInitiatorParty /
	// RankParticipantParty): the party journals the session durably,
	// rides out peer disconnects by reconnecting, and — restarted with
	// the same flags and journal directory — resumes an in-flight
	// session instead of forcing a full abort. Nil (the default) keeps
	// the fail-fast transport; Rank and the sorting entry points refuse
	// it.
	Recovery *RecoveryOptions
	// Faults, when non-nil, injects deterministic message faults (drops,
	// duplicates, reorders, corruption, link severs, party crashes) into
	// the run for robustness testing. See FaultPlan. The sorting entry
	// points refuse it.
	Faults *FaultPlan
	// Observer, when non-nil, records per-party phase spans and crypto/
	// communication counters for the run (party 0 is the initiator,
	// parties 1..n the participants). On abort the partially filled
	// Observer still holds every span up to the failure.
	Observer *Observer
	// Telemetry, when non-nil, streams runtime health metrics (transport
	// round cadence, redials, retransmissions, heartbeat RTT, journal
	// latency) into a registry that can be scraped live while the run is
	// in flight. Only the distributed party entry points feed it;
	// in-process runs have no runtime underneath to measure, so Rank
	// and the sorting entry points refuse it.
	Telemetry *Telemetry
}

// Validate rejects nonsense runtime settings at the entry point instead
// of letting them silently change meaning deeper in the stack: a
// negative Timeout would otherwise be "defaulted" like zero, a negative
// Workers would be treated as serial, and a negative Recovery.Grace
// would blame a reconnecting peer instantly. It is the one runtime
// check: every public entry point, the rankd daemon config
// (internal/service.Config) and the command-line front end
// (internal/cli, under grouprank, rankparty and rankd) run it, so the
// library and the binaries reject the same inputs with the same
// meaning.
func (r Runtime) Validate() error {
	if r.Timeout < 0 {
		return fmt.Errorf("groupranking: Timeout %v is negative (0 means the default deadline)", r.Timeout)
	}
	if r.Workers < 0 {
		return fmt.Errorf("groupranking: workers=%d negative (0 means every CPU)", r.Workers)
	}
	if r.Recovery != nil && r.Recovery.Grace < 0 {
		return fmt.Errorf("groupranking: Recovery.Grace %v is negative (0 means the 15s default)", r.Recovery.Grace)
	}
	return nil
}
