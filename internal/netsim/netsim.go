// Package netsim is a discrete-event, flow-level network simulator
// standing in for the NS2 setup of the paper's Section VII: a random
// connected graph built by deleting edges from a complete graph, duplex
// links with fixed bandwidth and propagation delay, shortest-path (hop
// count) routing, and per-link FIFO queueing so concurrent transfers
// congest each other. Protocol executions recorded as message traces
// are replayed over the simulated network with synchronous round
// barriers, yielding the end-to-end execution times of Fig. 3(b).
//
// The substitution versus the paper: NS2 simulates TCP packet dynamics;
// we simulate store-and-forward message flows with link serialisation
// and queueing. Both models make round count × message size interact
// with congestion, which is the effect the experiment measures.
package netsim

import (
	"fmt"
	"io"
	"math/big"
	"sort"

	"groupranking/internal/fixedbig"
)

// Event is one message of a replayed trace: its protocol round, its
// endpoints and its charged size. Traces come from the cost model's
// synthetic generators or from a recorded in-process run.
type Event struct {
	Round int
	From  int
	To    int
	Bytes int
}

// Topology is an undirected connected graph.
type Topology struct {
	nodes int
	adj   [][]bool
	edges int
}

// NewRandomTopology builds the paper's random graph: start from the
// complete graph on nodes vertices and delete uniformly random edges —
// skipping any whose removal would disconnect the graph — until exactly
// targetEdges remain.
func NewRandomTopology(nodes, targetEdges int, rng io.Reader) (*Topology, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("netsim: need at least two nodes, got %d", nodes)
	}
	complete := nodes * (nodes - 1) / 2
	if targetEdges < nodes-1 || targetEdges > complete {
		return nil, fmt.Errorf("netsim: target edge count %d outside [%d, %d]", targetEdges, nodes-1, complete)
	}
	t := &Topology{nodes: nodes, adj: make([][]bool, nodes), edges: complete}
	for i := range t.adj {
		t.adj[i] = make([]bool, nodes)
		for j := range t.adj[i] {
			t.adj[i][j] = i != j
		}
	}
	type edge struct{ a, b int }
	var candidates []edge
	for a := 0; a < nodes; a++ {
		for b := a + 1; b < nodes; b++ {
			candidates = append(candidates, edge{a, b})
		}
	}
	for t.edges > targetEdges {
		if len(candidates) == 0 {
			return nil, fmt.Errorf("netsim: no deletable edge left at %d edges", t.edges)
		}
		kBig, err := fixedbig.RandInt(rng, big.NewInt(int64(len(candidates))))
		if err != nil {
			return nil, err
		}
		k := int(kBig.Int64())
		e := candidates[k]
		candidates[k] = candidates[len(candidates)-1]
		candidates = candidates[:len(candidates)-1]
		if !t.adj[e.a][e.b] {
			continue
		}
		t.adj[e.a][e.b], t.adj[e.b][e.a] = false, false
		if t.connected() {
			t.edges--
		} else {
			t.adj[e.a][e.b], t.adj[e.b][e.a] = true, true
		}
	}
	return t, nil
}

// Nodes returns the vertex count.
func (t *Topology) Nodes() int { return t.nodes }

// Edges returns the current undirected edge count.
func (t *Topology) Edges() int { return t.edges }

// HasEdge reports whether a and b are directly linked.
func (t *Topology) HasEdge(a, b int) bool {
	return a >= 0 && b >= 0 && a < t.nodes && b < t.nodes && t.adj[a][b]
}

// connected reports whether the graph is connected (BFS from node 0).
func (t *Topology) connected() bool {
	seen := make([]bool, t.nodes)
	queue := []int{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for w := 0; w < t.nodes; w++ {
			if t.adj[v][w] && !seen[w] {
				seen[w] = true
				count++
				queue = append(queue, w)
			}
		}
	}
	return count == t.nodes
}

// Connected reports whether the topology is connected.
func (t *Topology) Connected() bool { return t.connected() }

// Paths returns, for every ordered node pair, the minimum-hop path as a
// node sequence (inclusive of both endpoints), computed by BFS.
func (t *Topology) Paths() [][][]int {
	paths := make([][][]int, t.nodes)
	for src := 0; src < t.nodes; src++ {
		prev := make([]int, t.nodes)
		for i := range prev {
			prev[i] = -1
		}
		prev[src] = src
		queue := []int{src}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for w := 0; w < t.nodes; w++ {
				if t.adj[v][w] && prev[w] == -1 {
					prev[w] = v
					queue = append(queue, w)
				}
			}
		}
		paths[src] = make([][]int, t.nodes)
		for dst := 0; dst < t.nodes; dst++ {
			if prev[dst] == -1 {
				continue // unreachable (cannot happen in a connected graph)
			}
			var rev []int
			for v := dst; v != src; v = prev[v] {
				rev = append(rev, v)
			}
			rev = append(rev, src)
			path := make([]int, len(rev))
			for i := range rev {
				path[i] = rev[len(rev)-1-i]
			}
			paths[src][dst] = path
		}
	}
	return paths
}

// LinkSpec fixes the per-link characteristics (the paper: 2 Mbps duplex,
// 50 ms latency).
type LinkSpec struct {
	BandwidthBps float64 // bits per second
	LatencySec   float64 // propagation delay per hop
}

// PaperLink returns the Section VII link parameters.
func PaperLink() LinkSpec { return LinkSpec{BandwidthBps: 2e6, LatencySec: 0.050} }

// Replay carries a prepared simulation environment.
type Replay struct {
	topo  *Topology
	link  LinkSpec
	paths [][][]int
	// assign maps party index to topology node.
	assign []int
}

// NewReplay prepares a replayer that places party i at node assign[i].
// Assignments must be distinct valid nodes.
func NewReplay(topo *Topology, link LinkSpec, assign []int) (*Replay, error) {
	if link.BandwidthBps <= 0 || link.LatencySec < 0 {
		return nil, fmt.Errorf("netsim: invalid link spec %+v", link)
	}
	seen := make(map[int]bool, len(assign))
	for i, node := range assign {
		if node < 0 || node >= topo.Nodes() {
			return nil, fmt.Errorf("netsim: party %d assigned to invalid node %d", i, node)
		}
		if seen[node] {
			return nil, fmt.Errorf("netsim: node %d assigned twice", node)
		}
		seen[node] = true
	}
	return &Replay{topo: topo, link: link, paths: topo.Paths(), assign: assign}, nil
}

// RandomAssignment places n parties on distinct random nodes.
func RandomAssignment(topo *Topology, n int, rng io.Reader) ([]int, error) {
	if n > topo.Nodes() {
		return nil, fmt.Errorf("netsim: %d parties exceed %d nodes", n, topo.Nodes())
	}
	perm := make([]int, topo.Nodes())
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		jBig, err := fixedbig.RandInt(rng, big.NewInt(int64(i+1)))
		if err != nil {
			return nil, err
		}
		j := int(jBig.Int64())
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:n], nil
}

// RunStats carries the replay outcome beyond the headline time.
type RunStats struct {
	// TotalSec is the simulated end-to-end time.
	TotalSec float64
	// BusiestLinkSec is the cumulative serialisation time of the most
	// loaded directed link — the congestion hot spot.
	BusiestLinkSec float64
	// MeanLinkUtilisation is the average busy fraction over directed
	// links that carried at least one message.
	MeanLinkUtilisation float64
	// Messages is the number of replayed events.
	Messages int
}

// Run replays a message trace over the network and returns the
// simulated end-to-end time in seconds. Events are grouped by round;
// round r+1 begins only after every round-r message has been delivered
// (the synchronous barrier of the protocols). computeSecPerRound[p], if
// non-nil, is added before party p's sends in every round it
// participates in, folding computation time into the timeline.
func (r *Replay) Run(trace []Event, computeSecPerRound []float64) (float64, error) {
	stats, err := r.RunStats(trace, computeSecPerRound)
	if err != nil {
		return 0, err
	}
	return stats.TotalSec, nil
}

// RunStats is Run with link-level accounting, used to analyse where the
// Fig. 3(b) time goes (latency vs congestion).
func (r *Replay) RunStats(trace []Event, computeSecPerRound []float64) (RunStats, error) {
	if len(trace) == 0 {
		return RunStats{}, nil
	}
	rounds := make(map[int][]Event)
	var roundIDs []int
	for _, ev := range trace {
		if _, ok := rounds[ev.Round]; !ok {
			roundIDs = append(roundIDs, ev.Round)
		}
		rounds[ev.Round] = append(rounds[ev.Round], ev)
	}
	sort.Ints(roundIDs)

	// linkFree[a][b] is the time the directed link a→b finishes its
	// current transmission (duplex: both directions independent).
	linkFree := make([][]float64, r.topo.Nodes())
	linkBusy := make([][]float64, r.topo.Nodes())
	for i := range linkFree {
		linkFree[i] = make([]float64, r.topo.Nodes())
		linkBusy[i] = make([]float64, r.topo.Nodes())
	}

	now := 0.0
	for _, round := range roundIDs {
		roundEnd := now
		for _, ev := range rounds[round] {
			if ev.From >= len(r.assign) || ev.To >= len(r.assign) {
				return RunStats{}, fmt.Errorf("netsim: trace references party %d beyond assignment", max(ev.From, ev.To))
			}
			release := now
			if computeSecPerRound != nil && ev.From < len(computeSecPerRound) {
				release += computeSecPerRound[ev.From]
			}
			src, dst := r.assign[ev.From], r.assign[ev.To]
			t := release
			path := r.paths[src][dst]
			serialise := float64(ev.Bytes) * 8 / r.link.BandwidthBps
			for h := 0; h+1 < len(path); h++ {
				a, b := path[h], path[h+1]
				start := t
				if linkFree[a][b] > start {
					start = linkFree[a][b] // queue behind the current transfer
				}
				linkFree[a][b] = start + serialise
				linkBusy[a][b] += serialise
				t = start + serialise + r.link.LatencySec
			}
			if t > roundEnd {
				roundEnd = t
			}
		}
		now = roundEnd
	}
	stats := RunStats{TotalSec: now, Messages: len(trace)}
	used, utilSum := 0, 0.0
	for a := range linkBusy {
		for b := range linkBusy[a] {
			if linkBusy[a][b] == 0 {
				continue
			}
			used++
			if linkBusy[a][b] > stats.BusiestLinkSec {
				stats.BusiestLinkSec = linkBusy[a][b]
			}
			if now > 0 {
				utilSum += linkBusy[a][b] / now
			}
		}
	}
	if used > 0 {
		stats.MeanLinkUtilisation = utilSum / float64(used)
	}
	return stats, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
