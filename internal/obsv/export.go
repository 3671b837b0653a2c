package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"
	"time"
)

// WriteJSONL exports every span as one JSON object per line, ordered by
// start time. Still-open spans (e.g. at the moment of an abort) are
// included with "open": true, so a partial trace carries the timeline
// up to the failure.
func (r *Registry) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// phaseAgg accumulates one phase row of the summary.
type phaseAgg struct {
	phase   string
	wallUS  int64 // max per-party duration (parties run concurrently)
	parties int
	counts  [numOps]int64
}

func (r *Registry) aggregate() []*phaseAgg {
	byPhase := make(map[string]*phaseAgg)
	var order []*phaseAgg
	for _, s := range r.Spans() {
		a, ok := byPhase[s.Phase]
		if !ok {
			a = &phaseAgg{phase: s.Phase}
			byPhase[s.Phase] = a
			order = append(order, a)
		}
		if s.DurUS > a.wallUS {
			a.wallUS = s.DurUS
		}
		a.parties++
		for op := Op(0); op < numOps; op++ {
			a.counts[op] += s.Counts[op.String()]
		}
	}
	return order
}

func fmtWall(us int64) string {
	return time.Duration(us * int64(time.Microsecond)).Round(10 * time.Microsecond).String()
}

// WriteSummary renders two human-readable tables in the repository's
// tab-separated benchtab style: a per-phase table (wall time is the
// maximum across parties, since parties run concurrently; operation
// counts are summed) and a per-party totals table.
func (r *Registry) WriteSummary(w io.Writer) error {
	if r == nil {
		return nil
	}
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "phase\twall\tparties\texp\tenc\tdec\tproofs+\tproofs?\tss-mul\tmsgs\tbytes")
	for _, a := range r.aggregate() {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			a.phase, fmtWall(a.wallUS), a.parties,
			a.counts[OpGroupExp], a.counts[OpEncrypt], a.counts[OpDecrypt],
			a.counts[OpProofMade], a.counts[OpProofChecked], a.counts[OpSSMul],
			a.counts[OpMsgSent], a.counts[OpByteSent])
	}
	fmt.Fprintln(tw)
	fmt.Fprintln(tw, "party\twall\texp\tenc\tdec\tproofs+\tproofs?\tss-mul\tfield-mul\tmsgs\tbytes")
	for _, p := range r.partyList() {
		var wall int64
		p.mu.Lock()
		for _, s := range p.done {
			wall += s.end.Sub(s.start).Microseconds()
		}
		p.mu.Unlock()
		t := p.read()
		fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			p.idx, fmtWall(wall),
			t[OpGroupExp], t[OpEncrypt], t[OpDecrypt],
			t[OpProofMade], t[OpProofChecked], t[OpSSMul],
			t[OpFieldMul], t[OpMsgSent], t[OpByteSent])
	}
	return tw.Flush()
}
