// Package tracemerge turns per-party JSONL span traces into one
// cross-party timeline. Each distributed party writes its own trace
// against its own clock; the merger aligns them on the session
// handshake (the one span every party provably finishes together — the
// echo broadcast is a barrier), verifies they carry the same run-level
// trace ID, and reports the per-phase critical path, the straggler of
// each phase, and every party's wait-vs-compute split.
//
// The wait-vs-compute split is what makes straggler identification
// honest: in a lockstep protocol the slowest party inflates everyone
// else's wall time, so per-phase durations look identical across
// parties. Receive-wait time (the obsv recv_wait_us counter) separates
// the party that was computing from the parties that were blocked on
// it — the straggler of a phase is the party with the most compute,
// not the one with the longest span.
package tracemerge

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// Span is one line of a party's JSONL trace (obsv.SpanSnapshot's wire
// shape).
type Span struct {
	TraceID string           `json:"trace_id,omitempty"`
	Party   int              `json:"party"`
	Phase   string           `json:"phase"`
	Seq     int              `json:"seq"`
	StartUS int64            `json:"start_us"`
	DurUS   int64            `json:"dur_us"`
	Open    bool             `json:"open,omitempty"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// recvWaitKey is the counter name countingNet charges blocking receive
// time to (kept in sync by the obsv op-name guard test).
const recvWaitKey = "recv_wait_us"

// sessionPhase is the alignment barrier's span name (core.PhaseSession;
// not imported to keep the analyzer dependency-free of the protocol).
const sessionPhase = "session"

// load reads one JSONL trace. Blank lines are skipped; a malformed
// line is an error naming its number.
func load(r io.Reader) ([]Span, error) {
	var spans []Span
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("line %d: %v", line, err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return spans, nil
}

// LoadFiles reads one trace per path ("-" reads stdin).
func LoadFiles(paths []string) ([][]Span, error) {
	out := make([][]Span, 0, len(paths))
	for _, path := range paths {
		var (
			spans []Span
			err   error
		)
		if path == "-" {
			spans, err = load(os.Stdin)
		} else {
			f, oerr := os.Open(path)
			if oerr != nil {
				return nil, oerr
			}
			spans, err = load(f)
			f.Close()
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		out = append(out, spans)
	}
	return out, nil
}

// PartyPhase is one party's share of one phase.
type PartyPhase struct {
	Party     int   `json:"party"`
	StartUS   int64 `json:"start_us"` // aligned to the session barrier
	DurUS     int64 `json:"dur_us"`
	WaitUS    int64 `json:"wait_us"`    // time blocked in receives
	ComputeUS int64 `json:"compute_us"` // DurUS − WaitUS
	Open      bool  `json:"open,omitempty"`
}

// PhaseReport is one phase of the merged timeline.
type PhaseReport struct {
	Phase string `json:"phase"`
	// WallUS spans the earliest aligned start to the latest aligned end
	// across parties.
	WallUS int64 `json:"wall_us"`
	// Straggler is the party with the most compute in this phase — the
	// one the others were waiting on.
	Straggler          int          `json:"straggler"`
	StragglerComputeUS int64        `json:"straggler_compute_us"`
	Parties            []PartyPhase `json:"parties"`
}

// PartyReport is one party's totals over the whole run.
type PartyReport struct {
	Party     int   `json:"party"`
	BusyUS    int64 `json:"busy_us"` // sum of its span durations
	WaitUS    int64 `json:"wait_us"`
	ComputeUS int64 `json:"compute_us"`
}

// Timeline is the merged cross-party view of one run.
type Timeline struct {
	TraceID string        `json:"trace_id,omitempty"`
	Parties []PartyReport `json:"parties"`
	Phases  []PhaseReport `json:"phases"`
	// CriticalPathUS sums each phase's straggler compute: the serial
	// core of the run that no amount of peer speed-up removes.
	CriticalPathUS int64 `json:"critical_path_us"`
	// Straggler is the party with the most total compute.
	Straggler          int   `json:"straggler"`
	StragglerComputeUS int64 `json:"straggler_compute_us"`
}

// Merge builds the timeline from one trace per process. With several
// traces each is re-anchored so its session span ends at time zero —
// the handshake's echo broadcast is a barrier, so those instants
// coincide in real time even though the processes' clocks do not. A
// single trace (an in-process run, or one party alone) already has one
// clock and is left unshifted. Traces must agree on the trace ID, and
// no party may appear in two traces.
func Merge(traces [][]Span) (*Timeline, error) {
	var (
		all     []Span
		traceID string
		seen    = make(map[int]int) // party → trace index
	)
	for ti, trace := range traces {
		anchor := int64(0)
		if len(traces) > 1 {
			anchor = anchorOf(trace)
		}
		for _, s := range trace {
			if s.TraceID != "" {
				if traceID == "" {
					traceID = s.TraceID
				} else if s.TraceID != traceID {
					return nil, fmt.Errorf("trace ID mismatch: %s vs %s (traces from different runs?)", traceID, s.TraceID)
				}
			}
			if prev, ok := seen[s.Party]; ok && prev != ti {
				return nil, fmt.Errorf("party %d appears in two traces (same file given twice, or traces overlap)", s.Party)
			}
			seen[s.Party] = ti
			s.StartUS -= anchor
			all = append(all, s)
		}
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("no spans to merge")
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].StartUS < all[j].StartUS })

	tl := &Timeline{TraceID: traceID, Straggler: -1}
	phaseIdx := make(map[string]int)
	partyIdx := make(map[int]int)
	for _, s := range all {
		pi, ok := phaseIdx[s.Phase]
		if !ok {
			pi = len(tl.Phases)
			phaseIdx[s.Phase] = pi
			tl.Phases = append(tl.Phases, PhaseReport{Phase: s.Phase, Straggler: -1})
		}
		wait := s.Counts[recvWaitKey]
		if wait > s.DurUS {
			wait = s.DurUS // a receive can outlive its span by a tick
		}
		tl.Phases[pi].Parties = append(tl.Phases[pi].Parties, PartyPhase{
			Party: s.Party, StartUS: s.StartUS, DurUS: s.DurUS,
			WaitUS: wait, ComputeUS: s.DurUS - wait, Open: s.Open,
		})
		bi, ok := partyIdx[s.Party]
		if !ok {
			bi = len(tl.Parties)
			partyIdx[s.Party] = bi
			tl.Parties = append(tl.Parties, PartyReport{Party: s.Party})
		}
		tl.Parties[bi].BusyUS += s.DurUS
		tl.Parties[bi].WaitUS += wait
		tl.Parties[bi].ComputeUS += s.DurUS - wait
	}
	sort.Slice(tl.Parties, func(i, j int) bool { return tl.Parties[i].Party < tl.Parties[j].Party })
	for pi := range tl.Phases {
		ph := &tl.Phases[pi]
		sort.Slice(ph.Parties, func(i, j int) bool { return ph.Parties[i].Party < ph.Parties[j].Party })
		var minStart, maxEnd int64
		for i, pp := range ph.Parties {
			if i == 0 || pp.StartUS < minStart {
				minStart = pp.StartUS
			}
			if end := pp.StartUS + pp.DurUS; i == 0 || end > maxEnd {
				maxEnd = end
			}
			if pp.ComputeUS > ph.StragglerComputeUS || ph.Straggler < 0 {
				ph.Straggler, ph.StragglerComputeUS = pp.Party, pp.ComputeUS
			}
		}
		ph.WallUS = maxEnd - minStart
		tl.CriticalPathUS += ph.StragglerComputeUS
	}
	for _, pr := range tl.Parties {
		if pr.ComputeUS > tl.StragglerComputeUS || tl.Straggler < 0 {
			tl.Straggler, tl.StragglerComputeUS = pr.Party, pr.ComputeUS
		}
	}
	return tl, nil
}

// anchorOf finds one trace's alignment instant: the end of its session
// span (first closed one), falling back to its earliest span start for
// traces from runs without a handshake.
func anchorOf(trace []Span) int64 {
	var minStart int64
	for i, s := range trace {
		if s.Phase == sessionPhase && !s.Open {
			return s.StartUS + s.DurUS
		}
		if i == 0 || s.StartUS < minStart {
			minStart = s.StartUS
		}
	}
	return minStart
}

func fmtUS(us int64) string {
	return time.Duration(us * int64(time.Microsecond)).Round(10 * time.Microsecond).String()
}
