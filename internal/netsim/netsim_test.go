package netsim

import (
	"math"
	"testing"

	"groupranking/internal/fixedbig"
)

func TestRandomTopologyInvariants(t *testing.T) {
	rng := fixedbig.NewDRBG("topo")
	cases := []struct{ nodes, edges int }{
		{5, 4}, {10, 15}, {20, 30}, {80, 320},
	}
	for _, tc := range cases {
		topo, err := NewRandomTopology(tc.nodes, tc.edges, rng)
		if err != nil {
			t.Fatalf("nodes=%d edges=%d: %v", tc.nodes, tc.edges, err)
		}
		if topo.Edges() != tc.edges {
			t.Errorf("got %d edges, want %d", topo.Edges(), tc.edges)
		}
		if !topo.Connected() {
			t.Errorf("nodes=%d edges=%d: graph disconnected", tc.nodes, tc.edges)
		}
		// Edge count by direct inspection must match.
		count := 0
		for a := 0; a < tc.nodes; a++ {
			for b := a + 1; b < tc.nodes; b++ {
				if topo.HasEdge(a, b) {
					count++
				}
			}
		}
		if count != tc.edges {
			t.Errorf("adjacency count %d, want %d", count, tc.edges)
		}
	}
}

func TestRandomTopologyErrors(t *testing.T) {
	rng := fixedbig.NewDRBG("topo-err")
	if _, err := NewRandomTopology(1, 0, rng); err == nil {
		t.Error("single node accepted")
	}
	if _, err := NewRandomTopology(5, 3, rng); err == nil {
		t.Error("edge count below spanning tree accepted")
	}
	if _, err := NewRandomTopology(5, 11, rng); err == nil {
		t.Error("edge count above complete graph accepted")
	}
}

func TestSpanningTreeEdgeCase(t *testing.T) {
	// Deleting down to exactly nodes−1 edges must yield a tree.
	rng := fixedbig.NewDRBG("tree")
	topo, err := NewRandomTopology(8, 7, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !topo.Connected() || topo.Edges() != 7 {
		t.Error("spanning tree construction failed")
	}
}

func TestPathsAreShortest(t *testing.T) {
	rng := fixedbig.NewDRBG("paths")
	topo, err := NewRandomTopology(12, 16, rng)
	if err != nil {
		t.Fatal(err)
	}
	paths := topo.Paths()
	for a := 0; a < 12; a++ {
		if len(paths[a][a]) != 1 || paths[a][a][0] != a {
			t.Fatalf("self path of %d is %v", a, paths[a][a])
		}
		for b := 0; b < 12; b++ {
			p := paths[a][b]
			if p[0] != a || p[len(p)-1] != b {
				t.Fatalf("path %d→%d has wrong endpoints: %v", a, b, p)
			}
			for h := 0; h+1 < len(p); h++ {
				if !topo.HasEdge(p[h], p[h+1]) {
					t.Fatalf("path %d→%d uses missing edge %d-%d", a, b, p[h], p[h+1])
				}
			}
			// Symmetric distance (undirected graph).
			if len(paths[b][a]) != len(p) {
				t.Fatalf("asymmetric distances %d→%d", a, b)
			}
			// Direct neighbours must use the single-hop path.
			if topo.HasEdge(a, b) && len(p) != 2 {
				t.Fatalf("neighbours %d,%d routed over %d hops", a, b, len(p)-1)
			}
		}
	}
}

func fullMesh(t *testing.T, nodes int) *Topology {
	t.Helper()
	topo, err := NewRandomTopology(nodes, nodes*(nodes-1)/2, fixedbig.NewDRBG("mesh"))
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestReplaySingleMessage(t *testing.T) {
	topo := fullMesh(t, 3)
	rep, err := NewReplay(topo, LinkSpec{BandwidthBps: 1e6, LatencySec: 0.1}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// 1 MB over a 1 Mbps direct link: 8 s serialisation + 0.1 s latency.
	trace := []Event{{Round: 1, From: 0, To: 1, Bytes: 1_000_000}}
	got, err := rep.Run(trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 8.0 + 0.1
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("got %f s, want %f s", got, want)
	}
}

func TestReplayCongestionSerialises(t *testing.T) {
	topo := fullMesh(t, 3)
	link := LinkSpec{BandwidthBps: 1e6, LatencySec: 0}
	rep, err := NewReplay(topo, link, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Two messages on the same directed link in the same round must
	// queue: 2 × 1 s serialisation.
	trace := []Event{
		{Round: 1, From: 0, To: 1, Bytes: 125_000},
		{Round: 1, From: 0, To: 1, Bytes: 125_000},
	}
	got, err := rep.Run(trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2.0) > 1e-9 {
		t.Errorf("got %f s, want 2.0 s", got)
	}
	// Opposite directions are duplex: no queueing.
	trace = []Event{
		{Round: 1, From: 0, To: 1, Bytes: 125_000},
		{Round: 1, From: 1, To: 0, Bytes: 125_000},
	}
	got, err = rep.Run(trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1.0) > 1e-9 {
		t.Errorf("duplex: got %f s, want 1.0 s", got)
	}
}

func TestReplayRoundBarrier(t *testing.T) {
	topo := fullMesh(t, 3)
	link := LinkSpec{BandwidthBps: 1e6, LatencySec: 0.5}
	rep, err := NewReplay(topo, link, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Two rounds of one latency-only message each: barriers add up.
	trace := []Event{
		{Round: 1, From: 0, To: 1, Bytes: 0},
		{Round: 2, From: 1, To: 2, Bytes: 0},
	}
	got, err := rep.Run(trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1.0) > 1e-9 {
		t.Errorf("got %f s, want 1.0 s (two 0.5 s rounds)", got)
	}
}

func TestReplayComputeTime(t *testing.T) {
	topo := fullMesh(t, 2)
	rep, err := NewReplay(topo, LinkSpec{BandwidthBps: 1e9, LatencySec: 0}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	trace := []Event{
		{Round: 1, From: 0, To: 1, Bytes: 1},
		{Round: 2, From: 0, To: 1, Bytes: 1},
	}
	got, err := rep.Run(trace, []float64{0.25, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got < 0.5 {
		t.Errorf("compute time not folded in: %f s", got)
	}
}

func TestReplayMultiHopLatency(t *testing.T) {
	// A path graph 0-1-2 forces two hops between parties at 0 and 2.
	rng := fixedbig.NewDRBG("multihop")
	var topo *Topology
	for {
		candidate, err := NewRandomTopology(3, 2, rng)
		if err != nil {
			t.Fatal(err)
		}
		// Want the path topology with node 1 in the middle.
		if candidate.HasEdge(0, 1) && candidate.HasEdge(1, 2) && !candidate.HasEdge(0, 2) {
			topo = candidate
			break
		}
	}
	rep, err := NewReplay(topo, LinkSpec{BandwidthBps: 1e9, LatencySec: 0.1}, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	trace := []Event{{Round: 1, From: 0, To: 1, Bytes: 0}}
	got, err := rep.Run(trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.2) > 1e-6 {
		t.Errorf("two-hop latency: got %f s, want 0.2 s", got)
	}
}

func TestReplayEmptyTrace(t *testing.T) {
	topo := fullMesh(t, 2)
	rep, err := NewReplay(topo, PaperLink(), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := rep.Run(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("empty trace took %f s", got)
	}
}

func TestNewReplayValidation(t *testing.T) {
	topo := fullMesh(t, 3)
	if _, err := NewReplay(topo, LinkSpec{}, []int{0}); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if _, err := NewReplay(topo, PaperLink(), []int{0, 0}); err == nil {
		t.Error("duplicate assignment accepted")
	}
	if _, err := NewReplay(topo, PaperLink(), []int{0, 9}); err == nil {
		t.Error("out-of-range node accepted")
	}
}

func TestRandomAssignment(t *testing.T) {
	topo := fullMesh(t, 10)
	rng := fixedbig.NewDRBG("assign")
	assign, err := RandomAssignment(topo, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(assign) != 6 {
		t.Fatalf("got %d assignments", len(assign))
	}
	seen := make(map[int]bool)
	for _, node := range assign {
		if node < 0 || node >= 10 || seen[node] {
			t.Fatalf("bad assignment %v", assign)
		}
		seen[node] = true
	}
	if _, err := RandomAssignment(topo, 11, rng); err == nil {
		t.Error("oversubscription accepted")
	}
}

func TestPaperTopologyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("80-node topology generation is slow in -short mode")
	}
	rng := fixedbig.NewDRBG("paper-scale")
	topo, err := NewRandomTopology(80, 320, rng)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Edges() != 320 || !topo.Connected() {
		t.Error("paper topology invariants violated")
	}
}

func TestRunStatsAccounting(t *testing.T) {
	topo := fullMesh(t, 3)
	link := LinkSpec{BandwidthBps: 1e6, LatencySec: 0}
	rep, err := NewReplay(topo, link, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Two messages on one link (queueing), one on another.
	trace := []Event{
		{Round: 1, From: 0, To: 1, Bytes: 125_000}, // 1 s
		{Round: 1, From: 0, To: 1, Bytes: 125_000}, // 1 s, queued
		{Round: 1, From: 2, To: 1, Bytes: 125_000}, // 1 s, parallel link
	}
	stats, err := rep.RunStats(trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 3 {
		t.Errorf("messages = %d", stats.Messages)
	}
	if math.Abs(stats.TotalSec-2.0) > 1e-9 {
		t.Errorf("total %f, want 2.0", stats.TotalSec)
	}
	if math.Abs(stats.BusiestLinkSec-2.0) > 1e-9 {
		t.Errorf("busiest link %f, want 2.0 (two queued seconds)", stats.BusiestLinkSec)
	}
	// Two used links: 2.0/2.0 and 1.0/2.0 → mean 0.75.
	if math.Abs(stats.MeanLinkUtilisation-0.75) > 1e-9 {
		t.Errorf("mean utilisation %f, want 0.75", stats.MeanLinkUtilisation)
	}
	// The empty trace yields zeroed stats.
	empty, err := rep.RunStats(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if empty.TotalSec != 0 || empty.Messages != 0 {
		t.Errorf("empty trace stats %+v", empty)
	}
}
