package obsv

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"strings"
	"sync"
	"testing"

	"groupranking/internal/fixedbig"
	"groupranking/internal/group"
	"groupranking/internal/transport"
)

func TestNilFastPath(t *testing.T) {
	var r *Registry
	p := r.Party(3)
	if p != nil {
		t.Fatal("nil registry must hand out nil parties")
	}
	// Every operation on the disabled handles must be a no-op, not a panic.
	p.Add(OpGroupExp, 1)
	p.Begin("x")
	p.End()
	if r.PartyTotal(0, OpGroupExp) != 0 {
		t.Error("nil registry reported totals")
	}
	if r.Spans() != nil || r.Metrics() != nil {
		t.Error("nil registry reported spans or a metric store")
	}
	ctx := WithRegistry(context.Background(), nil)
	if RegistryFrom(ctx) != nil || PartyFrom(ctx) != nil {
		t.Error("disabled context carried observability state")
	}
}

func TestWrappersIdentityWhenDisabled(t *testing.T) {
	g, err := group.ByName("toy-dl-256")
	if err != nil {
		t.Fatal(err)
	}
	if Group(g, nil) != g {
		t.Error("Group(g, nil) must return g unchanged")
	}
	fab, err := transport.New(2)
	if err != nil {
		t.Fatal(err)
	}
	if ObservedNet(fab, nil) != transport.Net(fab) {
		t.Error("ObservedNet(n, nil) must return n unchanged")
	}
	if PartyOf(g) != nil {
		t.Error("PartyOf on an unwrapped group must be nil")
	}
}

func TestWrapperIdempotent(t *testing.T) {
	g, err := group.ByName("toy-dl-256")
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	p := reg.Party(0)
	w := Group(g, p)
	if Group(w, p) != w {
		t.Error("re-wrapping for the same party must be the identity")
	}
	if PartyOf(w) != p {
		t.Error("PartyOf lost the party")
	}
}

func TestCountingGroup(t *testing.T) {
	g, err := group.ByName("toy-dl-256")
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	p := reg.Party(1)
	w := Group(g, p)
	p.Begin("phase-a")
	k, err := w.RandomScalar(fixedbig.NewDRBG("obsv-test"))
	if err != nil {
		t.Fatal(err)
	}
	e := group.ExpGen(w, k) // delegates to w.Exp → counted
	e = w.Op(e, e)
	_ = w.Inv(e)
	p.End()
	if got := reg.PartyTotal(1, OpGroupExp); got != 1 {
		t.Errorf("exp count %d, want 1", got)
	}
	if got := reg.PartyTotal(1, OpGroupOp); got != 1 {
		t.Errorf("op count %d, want 1", got)
	}
	if got := reg.PartyTotal(1, OpGroupInv); got != 1 {
		t.Errorf("inv count %d, want 1", got)
	}
}

func TestObservedNetCounts(t *testing.T) {
	fab, err := transport.New(3)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	p := reg.Party(0)
	net := ObservedNet(fab, p)
	if err := net.Send(1, 0, 1, 10, "x"); err != nil {
		t.Fatal(err)
	}
	if err := net.Broadcast(2, 0, 7, "y"); err != nil {
		t.Fatal(err)
	}
	if got := reg.PartyTotal(0, OpMsgSent); got != 3 { // 1 send + 2 broadcast legs
		t.Errorf("msgs %d, want 3", got)
	}
	if got := reg.PartyTotal(0, OpByteSent); got != 24 { // 10 + 2·7
		t.Errorf("bytes %d, want 24", got)
	}
	s := fab.Stats()
	if s.MessagesSent[0] != 3 || s.BytesSent[0] != 24 {
		t.Errorf("fabric disagrees: %d msgs, %d bytes", s.MessagesSent[0], s.BytesSent[0])
	}
}

func TestOrphanSpan(t *testing.T) {
	reg := NewRegistry()
	p := reg.Party(2)
	p.Add(OpEncrypt, 5) // no span open
	spans := reg.Spans()
	if len(spans) != 1 || spans[0].Phase != "(unattributed)" || spans[0].Counts["elgamal_enc"] != 5 {
		t.Errorf("orphan span missing or wrong: %+v", spans)
	}
	if reg.PartyTotal(2, OpEncrypt) != 5 {
		t.Errorf("orphan counts not in totals")
	}
}

// TestRegistryConcurrent exercises the registry the way a protocol run
// does — every party adding, beginning and ending spans concurrently
// while the main goroutine snapshots — and relies on -race (wired into
// make check) to prove the hot path is data-race free.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	const parties, iters = 8, 200
	var wg sync.WaitGroup
	for i := 0; i < parties; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := reg.Party(i)
			for k := 0; k < iters; k++ {
				switch k % 3 {
				case 0:
					p.Begin("alpha")
				case 1:
					p.Add(OpGroupExp, 1)
					p.Add(OpByteSent, 32)
				case 2:
					p.End()
				}
			}
			p.End()
		}()
	}
	// Snapshot mid-flight: Spans and totals must be safe during the run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for j := 0; j < 50; j++ {
			reg.Spans()
			reg.PartyTotal(j%parties, OpGroupExp)
		}
	}()
	wg.Wait()
	<-done
	perParty := 0
	for k := 0; k < iters; k++ {
		if k%3 == 1 {
			perParty++
		}
	}
	for i := 0; i < parties; i++ {
		if got := reg.PartyTotal(i, OpGroupExp); got != int64(perParty) {
			t.Errorf("party %d exps %d, want %d", i, got, perParty)
		}
	}
}

// TestExporters pins what each exporter reads off the one set of cells:
// every JSONL span its own counts (a span open at export counts up to
// now, the catch-all what fell outside every span), and the exposition
// the party's totals.
func TestExporters(t *testing.T) {
	reg := NewRegistry()
	p := reg.Party(0)
	p.Add(OpEncrypt, 1) // before any span
	p.Begin("keygen")
	p.Add(OpGroupExp, 4)
	p.Begin("chain")
	p.Add(OpMsgSent, 2)
	p.Add(OpByteSent, 100)
	p.End()
	p.Add(OpEncrypt, 2) // after the last span
	q := reg.Party(1)
	q.Begin("keygen")
	q.Add(OpGroupExp, 3) // still open at export

	var jsonl bytes.Buffer
	if err := reg.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 JSONL spans, got %d: %q", len(lines), jsonl.String())
	}
	got := make(map[string]SpanSnapshot)
	for _, line := range lines {
		var snap SpanSnapshot
		if err := json.Unmarshal([]byte(line), &snap); err != nil {
			t.Fatalf("line not valid JSON: %v", err)
		}
		got[fmt.Sprintf("%d %s", snap.Party, snap.Phase)] = snap
	}
	for key, want := range map[string]map[string]int64{
		"0 keygen":         {"group_exp": 4},
		"0 chain":          {"msgs_sent": 2, "bytes_sent": 100},
		"0 (unattributed)": {"elgamal_enc": 3},
		"1 keygen":         {"group_exp": 3},
	} {
		if snap := got[key]; !maps.Equal(snap.Counts, want) {
			t.Errorf("span %q counts %v, want %v", key, snap.Counts, want)
		}
	}
	if !got["1 keygen"].Open || got["0 chain"].Open {
		t.Errorf("open flags wrong: %+v", got)
	}

	var expo strings.Builder
	if err := reg.Metrics().WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# HELP grouprank_ops_total Protocol operations by party and kind.\n# TYPE grouprank_ops_total counter\n",
		`grouprank_ops_total{party="0",op="group_exp"} 4` + "\n",
		`grouprank_ops_total{party="0",op="elgamal_enc"} 3` + "\n",
		`grouprank_ops_total{party="0",op="bytes_sent"} 100` + "\n",
		`grouprank_ops_total{party="1",op="group_exp"} 3` + "\n",
		`grouprank_ops_total{party="1",op="recv_wait_us"} 0` + "\n",
	} {
		if !strings.Contains(expo.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, expo.String())
		}
	}
	if n := strings.Count(expo.String(), "grouprank_ops_total{"); n != 2*int(numOps) {
		t.Errorf("exposition has %d grouprank_ops_total series, want every op of both parties (%d)", n, 2*int(numOps))
	}

	var sum bytes.Buffer
	if err := reg.WriteSummary(&sum); err != nil {
		t.Fatal(err)
	}
	out := sum.String()
	for _, want := range []string{"keygen", "chain", "phase", "party"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestDisabledAddsNoAllocations is the zero-overhead contract: with
// observability off, the hooks in the hot path must not allocate.
func TestDisabledAddsNoAllocations(t *testing.T) {
	var p *Party
	if n := testing.AllocsPerRun(100, func() {
		p.Add(OpGroupExp, 1)
	}); n != 0 {
		t.Errorf("nil-party Add allocates %.1f objects/op", n)
	}
	g, err := group.ByName("toy-dl-256")
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if Group(g, nil) != g {
			t.Fatal("wrapper not identity")
		}
	}); n != 0 {
		t.Errorf("disabled Group wrap allocates %.1f objects/op", n)
	}
}
