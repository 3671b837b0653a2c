package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"

	"groupranking/internal/obsv"
)

// Span kinds, outermost first. A traced run records
// workload → ranking → call → phase.
const (
	spanWorkload = "workload"
	spanRanking  = "ranking"
	spanCall     = "call"
	spanPhase    = "phase"
)

// span is one line of trace-<workload>.jsonl. Spans of one ranking
// share its id, the ranking's seed.
type span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent"` // 0 = none
	Kind    string           `json:"kind"`
	Name    string           `json:"name"`
	Ranking string           `json:"ranking,omitempty"`
	Party   int              `json:"party"` // -1 when the span belongs to no one party
	StartUS int64            `json:"start_us"`
	DurUS   int64            `json:"dur_us"`
	SelfUS  int64            `json:"self_us"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps a traced run's spans in memory until the run ends. A nil
// tracer records nothing, which is how timed runs stay untraced.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id and the function
// that closes it.
func (t *tracer) begin(parent int, kind, name, ranking string, party int) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Kind: kind, Name: name,
		Ranking: ranking, Party: party, StartUS: start.Sub(t.t0).Microseconds(),
	})
	id := len(t.spans)
	t.mu.Unlock()
	return id, func() {
		dur := time.Since(start).Microseconds()
		t.mu.Lock()
		t.spans[id-1].DurUS = dur
		t.mu.Unlock()
	}
}

// addPhases re-parents one Observer's phase spans under the call that
// produced them. created is when the Observer was made, the origin of
// its own clock.
func (t *tracer) addPhases(parent int, ranking string, created time.Time, snaps []obsv.SpanSnapshot) {
	if t == nil {
		return
	}
	offset := created.Sub(t.t0).Microseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range snaps {
		t.spans = append(t.spans, span{
			ID: len(t.spans) + 1, Parent: parent, Kind: spanPhase, Name: s.Phase,
			Ranking: ranking, Party: s.Party, StartUS: offset + s.StartUS, DurUS: s.DurUS,
			Counts: s.Counts,
		})
	}
}

// finish computes every span's self time and returns the spans.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	setSelfTimes(t.spans)
	return t.spans
}

// setSelfTimes sets each span's self time: its duration minus the part
// of its interval that its child spans cover. Children may overlap one
// another (parties run side by side) and may stick out of the parent;
// overlap counts once and the excess not at all.
func setSelfTimes(spans []span) {
	type interval struct{ lo, hi int64 }
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.StartUS, s.StartUS + s.DurUS})
		}
	}
	for i := range spans {
		s := &spans[i]
		lo, hi := s.StartUS, s.StartUS+s.DurUS
		ivs := children[s.ID]
		slices.SortFunc(ivs, func(a, b interval) int { return cmp.Compare(a.lo, b.lo) })
		covered, edge := int64(0), lo
		for _, iv := range ivs {
			from, to := max(iv.lo, edge), min(iv.hi, hi)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		s.SelfUS = s.DurUS - covered
	}
}

// writeTrace writes the spans one JSON object per line.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
