package transport

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"groupranking/internal/leakcheck"
	"groupranking/internal/telemetry"
)

// The Net conformance table: every TCP-backed Net implementation is one
// row of tcpStacks, and every behaviour the protocol layers rely on is
// one TestTCP* case run over all rows. The boundary tests
// (boundary_test.go) run over the same rows.

// stackEnd is one party's endpoint of a stack under test.
type stackEnd interface {
	Net
	Stats() Stats
	Health() []telemetry.PeerHealth
	Close()
}

// muxEnd is a MuxSession that owns its mux, so the mux-backed rows tear
// down like the single-session fabrics.
type muxEnd struct {
	*MuxSession
	mux *SessionMux
}

func (e muxEnd) Health() []telemetry.PeerHealth { return e.mux.Health() }

func (e muxEnd) Close() {
	e.MuxSession.Close()
	e.mux.Close()
}

// stackGrace is the blame grace of the recovering rows: short, so a
// peer that leaves for good is blamed within a test's patience.
const stackGrace = 300 * time.Millisecond

type tcpStack struct {
	name string
	// build forms an n-party mesh whose endpoints use the given receive
	// and write timeout, and closes it at test cleanup. With regs, party
	// me's endpoint feeds regs[me] the way its binary wires telemetry.
	build func(t *testing.T, n int, timeout time.Duration, regs ...*telemetry.Registry) []stackEnd
	// frame is the stack's wire frame for a round-1, 8-byte data message
	// with a nil payload (the raw-injection tests splice a payload in).
	frame any
	// recovers marks stacks that buffer sends to a down link instead of
	// failing them.
	recovers bool
}

var tcpStacks = []tcpStack{
	{
		name: "tcp",
		build: func(t *testing.T, n int, timeout time.Duration, regs ...*telemetry.Registry) []stackEnd {
			return formMesh(t, n, func(addrs []string, me int) (stackEnd, error) {
				return OpenTCPFabric(addrs, me, timeout, MuxOptions{Telemetry: regAt(regs, me)}, "", nil)
			})
		},
		frame: muxEnv{SID: tcpFabricSID, Kind: muxKindData, Round: 1, Bytes: 8},
	},
	{
		name: "mux",
		build: func(t *testing.T, n int, timeout time.Duration, regs ...*telemetry.Registry) []stackEnd {
			return formMesh(t, n, func(addrs []string, me int) (stackEnd, error) {
				m, err := NewSessionMux(addrs, me, timeout, MuxOptions{Telemetry: regAt(regs, me)})
				if err != nil {
					return nil, err
				}
				s, err := m.Open("s", 0)
				return muxEnd{s, m}, err
			})
		},
		frame: muxEnv{SID: "s", Kind: muxKindData, Round: 1, Bytes: 8},
	},
	{
		name: "mux recovering",
		build: func(t *testing.T, n int, timeout time.Duration, regs ...*telemetry.Registry) []stackEnd {
			return formMesh(t, n, func(addrs []string, me int) (stackEnd, error) {
				m, err := NewSessionMux(addrs, me, timeout,
					MuxOptions{Telemetry: regAt(regs, me), Recovery: &MuxRecovery{Epoch: 1, Grace: stackGrace}})
				if err != nil {
					return nil, err
				}
				s, err := m.OpenRecovering("s", 0, newMemJournal())
				return muxEnd{s, m}, err
			})
		},
		frame:    muxEnv{SID: "s", Kind: muxKindData, Round: 1, Bytes: 8, Seq: 1},
		recovers: true,
	},
	{
		name: "recovering",
		build: func(t *testing.T, n int, timeout time.Duration, regs ...*telemetry.Registry) []stackEnd {
			return formMesh(t, n, func(addrs []string, me int) (stackEnd, error) {
				return OpenTCPFabric(addrs, me, timeout,
					MuxOptions{Telemetry: regAt(regs, me), Recovery: &MuxRecovery{Grace: stackGrace}}, "s", newMemJournal())
			})
		},
		frame:    muxEnv{SID: "s", Kind: muxKindData, Round: 1, Bytes: 8, Seq: 1},
		recovers: true,
	},
	{
		name: "recovering journaled",
		build: func(t *testing.T, n int, timeout time.Duration, regs ...*telemetry.Registry) []stackEnd {
			return formMesh(t, n, func(addrs []string, me int) (stackEnd, error) {
				return OpenTCPFabric(addrs, me, timeout,
					MuxOptions{Telemetry: regAt(regs, me), Recovery: &MuxRecovery{Grace: stackGrace}}, "s", newEncodedJournal())
			})
		},
		frame:    muxEnv{SID: "s", Kind: muxKindData, Round: 1, Bytes: 8, Seq: 1},
		recovers: true,
	},
}

// regAt is party me's registry from a build's optional regs.
func regAt(regs []*telemetry.Registry, me int) *telemetry.Registry {
	if len(regs) == 0 {
		return nil
	}
	return regs[me]
}

// formMesh builds all n endpoints of a mesh concurrently on fresh
// loopback addresses (every constructor blocks until the mesh is
// complete) and closes them at test cleanup.
func formMesh[E interface{ Close() }](t *testing.T, n int, mk func(addrs []string, me int) (E, error)) []E {
	t.Helper()
	addrs, err := FreeLoopbackAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	return formMeshOn(t, addrs, mk)
}

func formMeshOn[E interface{ Close() }](t *testing.T, addrs []string, mk func(addrs []string, me int) (E, error)) []E {
	t.Helper()
	ends := make([]E, len(addrs))
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for me := range addrs {
		me := me
		wg.Add(1)
		go func() {
			defer wg.Done()
			ends[me], errs[me] = mk(addrs, me)
		}()
	}
	wg.Wait()
	t.Cleanup(func() {
		for me, e := range ends {
			if errs[me] == nil {
				e.Close()
			}
		}
	})
	for me, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", me, err)
		}
	}
	return ends
}

// linkOf digs the link layer out from under an endpoint, for the tests
// that sever connections or inject raw bytes.
func linkOf(e stackEnd) *mesh {
	switch e := e.(type) {
	case *TCPFabric:
		return e.m.link
	case muxEnd:
		return e.mux.link
	}
	panic("unknown stack endpoint")
}

// eachStack runs one conformance case over every row, goroutine-leak
// checked.
func eachStack(t *testing.T, body func(t *testing.T, s tcpStack)) {
	for _, s := range tcpStacks {
		s := s
		t.Run(s.name, func(t *testing.T) {
			leakcheck.Check(t)
			body(t, s)
		})
	}
}

const stackTimeout = 5 * time.Second

func TestTCPMeshSendRecv(t *testing.T) {
	eachStack(t, func(t *testing.T, s tcpStack) {
		ends := s.build(t, 3, stackTimeout)
		if err := ends[0].Send(1, 0, 2, 16, wirePayload{From: 0, Text: "hello"}); err != nil {
			t.Fatal(err)
		}
		got, err := ends[2].RecvCtx(context.Background(), 2, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		if got != (wirePayload{From: 0, Text: "hello"}) {
			t.Fatalf("got %#v", got)
		}
	})
}

func TestTCPOrderingPerSender(t *testing.T) {
	eachStack(t, func(t *testing.T, s tcpStack) {
		ends := s.build(t, 2, stackTimeout)
		for i := 0; i < 50; i++ {
			if err := ends[0].Send(0, 0, 1, 4, wirePayload{From: i}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ {
			got, err := ends[1].RecvCtx(context.Background(), 1, 0, -1)
			if err != nil {
				t.Fatal(err)
			}
			if got.(wirePayload).From != i {
				t.Fatalf("message %d out of order", i)
			}
		}
	})
}

func TestTCPBroadcastGather(t *testing.T) {
	eachStack(t, func(t *testing.T, s tcpStack) {
		const n = 4
		ends := s.build(t, n, stackTimeout)
		var wg sync.WaitGroup
		for me := 0; me < n; me++ {
			me := me
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := ends[me].Broadcast(1, me, 8, wirePayload{From: me}); err != nil {
					t.Error(err)
					return
				}
				all, err := GatherAll(context.Background(), ends[me], me, -1)
				if err != nil {
					t.Error(err)
					return
				}
				for from := 0; from < n; from++ {
					if from != me && all[from] != (wirePayload{From: from}) {
						t.Errorf("party %d slot %d wrong: %#v", me, from, all[from])
					}
				}
			}()
		}
		wg.Wait()
	})
}

func TestTCPEndpointRestrictions(t *testing.T) {
	eachStack(t, func(t *testing.T, s tcpStack) {
		ends := s.build(t, 2, stackTimeout)
		if err := ends[0].Send(0, 1, 0, 0, wirePayload{}); err == nil {
			t.Error("sending as another party accepted")
		}
		if _, err := ends[0].RecvCtx(context.Background(), 1, 0, -1); err == nil {
			t.Error("receiving as another party accepted")
		}
		if err := ends[0].Send(0, 0, 0, 0, wirePayload{}); err == nil {
			t.Error("self send accepted")
		}
		if err := ends[0].Send(0, 0, 2, 0, wirePayload{}); err == nil {
			t.Error("send to a party outside the mesh accepted")
		}
	})
}

func TestTCPTimeout(t *testing.T) {
	eachStack(t, func(t *testing.T, s tcpStack) {
		ends := s.build(t, 2, 30*time.Millisecond)
		_, err := ends[0].RecvCtx(context.Background(), 0, 1, -1)
		if ae, ok := isAbort(err); !ok || ae.Party != 1 || !errors.Is(err, ErrTimeout) {
			t.Errorf("receive from a silent peer = %v, want an abort naming party 1 with ErrTimeout", err)
		}
	})
}

// TestTCPStats pins the Stats shape (a TCP endpoint fills only its own
// slot) and the echo split: echo sub-round traffic is tallied apart
// from the protocol counters.
func TestTCPStats(t *testing.T) {
	eachStack(t, func(t *testing.T, s tcpStack) {
		ends := s.build(t, 2, stackTimeout)
		if err := ends[0].Send(7, 0, 1, 100, wirePayload{}); err != nil {
			t.Fatal(err)
		}
		if err := ends[0].Send(echoRound(7), 0, 1, 32, wirePayload{}); err != nil {
			t.Fatal(err)
		}
		st := ends[0].Stats()
		if len(st.MessagesSent) != 2 || len(st.BytesSent) != 2 {
			t.Fatalf("stats slices sized %d/%d, want 2/2", len(st.MessagesSent), len(st.BytesSent))
		}
		if st.MessagesSent[0] != 1 || st.BytesSent[0] != 100 {
			t.Errorf("own slot = %d msgs, %d bytes", st.MessagesSent[0], st.BytesSent[0])
		}
		if st.MessagesSent[1] != 0 || st.BytesSent[1] != 0 {
			t.Errorf("peer slot should be zero, got %d msgs, %d bytes", st.MessagesSent[1], st.BytesSent[1])
		}
		if st.MaxRound != 7 || st.DistinctRounds != 1 {
			t.Errorf("rounds: max %d, distinct %d", st.MaxRound, st.DistinctRounds)
		}
		if rs := st.PerRound[7]; rs.Messages != 1 || rs.Bytes != 100 || len(st.PerRound) != 1 {
			t.Errorf("per-round = %+v", st.PerRound)
		}
		if st.EchoMessages != 1 || st.EchoBytes != 32 {
			t.Errorf("echo tally = %d msgs, %d bytes, want 1/32", st.EchoMessages, st.EchoBytes)
		}
	})
}

// statsScript is party me's part of one fixed exchange: unicasts at
// sparse round tags, a broadcast and an echo sub-round, each received
// before the next step.
func statsScript(net Net, me int) error {
	ctx := context.Background()
	n := net.N()
	next, prev := (me+1)%n, (me+n-1)%n
	if err := net.Send(1, me, next, 10+me, wirePayload{From: me}); err != nil {
		return err
	}
	if _, err := net.RecvCtx(ctx, me, prev, 1); err != nil {
		return err
	}
	for _, round := range []int{4, echoRound(4)} {
		if err := net.Broadcast(round, me, 8*(me+1), wirePayload{From: me}); err != nil {
			return err
		}
		if _, err := GatherAll(ctx, net, me, round); err != nil {
			return err
		}
	}
	if err := net.Send(9, me, prev, 100*(me+1), wirePayload{From: me, Text: "late"}); err != nil {
		return err
	}
	_, err := net.RecvCtx(ctx, me, next, 9)
	return err
}

// runStatsScript runs statsScript for every party at once, party me on
// nets[me].
func runStatsScript(t *testing.T, nets []Net) {
	t.Helper()
	errs := make([]error, len(nets))
	var wg sync.WaitGroup
	for me, net := range nets {
		me, net := me, net
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[me] = statsScript(net, me)
		}()
	}
	wg.Wait()
	for me, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", me, err)
		}
	}
}

// TestStatsAgreeAcrossStacks holds every TCP stack's send ledger to the
// in-memory Fabric's over one fixed exchange: each endpoint's own slot
// equals the fabric's slot for that party, the endpoints' per-round and
// echo tallies sum to the fabric's, and the live send counters equal the
// endpoint's Stats.
func TestStatsAgreeAcrossStacks(t *testing.T) {
	const n = 3
	fab, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	runStatsScript(t, []Net{fab, fab, fab})
	want := fab.Stats()
	eachStack(t, func(t *testing.T, s tcpStack) {
		regs := make([]*telemetry.Registry, n)
		for me := range regs {
			regs[me] = telemetry.NewRegistry()
		}
		ends := s.build(t, n, stackTimeout, regs...)
		nets := make([]Net, n)
		for me, e := range ends {
			nets[me] = e
		}
		runStatsScript(t, nets)
		perRound := make(map[int]RoundStats)
		var echoMsgs, echoBytes int64
		for me, e := range ends {
			st := e.Stats()
			for p := 0; p < n; p++ {
				var msgs, bytes int64
				if p == me {
					msgs, bytes = want.MessagesSent[p], want.BytesSent[p]
				}
				if st.MessagesSent[p] != msgs || st.BytesSent[p] != bytes {
					t.Errorf("party %d's slot %d = %d msgs, %d bytes, want %d, %d",
						me, p, st.MessagesSent[p], st.BytesSent[p], msgs, bytes)
				}
			}
			for r, rs := range st.PerRound {
				sum := perRound[r]
				sum.Messages += rs.Messages
				sum.Bytes += rs.Bytes
				perRound[r] = sum
			}
			echoMsgs += st.EchoMessages
			echoBytes += st.EchoBytes
			for name, v := range map[string]int64{
				"mux_session_msgs_total":     st.MessagesSent[me],
				"mux_session_bytes_total":    st.BytesSent[me],
				"transport_echo_msgs_total":  st.EchoMessages,
				"transport_echo_bytes_total": st.EchoBytes,
				"transport_rounds_total":     int64(st.DistinctRounds),
			} {
				if got := regs[me].Counter(name, "").Value(); got != v {
					t.Errorf("party %d serves %s = %d, its Stats say %d", me, name, got, v)
				}
			}
		}
		if !reflect.DeepEqual(perRound, want.PerRound) {
			t.Errorf("per-round sum = %v, fabric's = %v", perRound, want.PerRound)
		}
		if echoMsgs != want.EchoMessages || echoBytes != want.EchoBytes {
			t.Errorf("echo sum = %d msgs, %d bytes, fabric's = %d, %d", echoMsgs, echoBytes, want.EchoMessages, want.EchoBytes)
		}
	})
}

// TestMetricFamiliesPerStack pins the metric families each stack serves
// once it has carried traffic, so a rename, or a family gained or lost,
// is a reviewed diff here. Every stack is a mux built with the
// registry, so every one serves the full mux family set.
func TestMetricFamiliesPerStack(t *testing.T) {
	ledger := []string{
		"mux_session_bytes_total", "mux_session_msgs_total",
		"transport_echo_bytes_total", "transport_echo_msgs_total",
		"transport_round_seconds", "transport_rounds_total",
	}
	mux := append([]string{
		"mux_control_frames_total", "mux_data_frames_total", "mux_late_frames_total",
		"mux_link_connects_total", "mux_link_redials_total", "mux_link_up",
		"mux_pending_dropped_total", "mux_resume_frames_total", "mux_retransmit_frames_total",
		"mux_sessions_active", "mux_sessions_closed_total", "mux_sessions_opened_total",
		"transport_heartbeat_rtt_seconds",
	}, ledger...)
	sort.Strings(mux)
	want := map[string][]string{
		"tcp":                  mux,
		"mux":                  mux,
		"mux recovering":       mux,
		"recovering":           mux,
		"recovering journaled": mux,
	}
	eachStack(t, func(t *testing.T, s tcpStack) {
		regs := []*telemetry.Registry{telemetry.NewRegistry(), telemetry.NewRegistry()}
		ends := s.build(t, 2, stackTimeout, regs...)
		if err := ends[0].Send(1, 0, 1, 8, wirePayload{}); err != nil {
			t.Fatal(err)
		}
		if _, err := ends[1].RecvCtx(context.Background(), 1, 0, 1); err != nil {
			t.Fatal(err)
		}
		for me, reg := range regs {
			if got := reg.Names(); !reflect.DeepEqual(got, want[s.name]) {
				t.Errorf("party %d serves %v,\nwant %v", me, got, want[s.name])
			}
		}
	})
}

// TestTCPClosedPeerSurfacesError: a peer that goes away for good
// surfaces as a typed abort naming it with ErrPeerDown — at once on the
// fail-fast stacks, after the grace on the recovering ones — never as a
// hang.
func TestTCPClosedPeerSurfacesError(t *testing.T) {
	eachStack(t, func(t *testing.T, s tcpStack) {
		ends := s.build(t, 2, stackTimeout)
		ends[1].Close()
		_, err := ends[0].RecvCtx(context.Background(), 0, 1, -1)
		if ae, ok := isAbort(err); !ok || ae.Party != 1 || !errors.Is(err, ErrPeerDown) {
			t.Fatalf("receive from a closed peer = %v, want an abort naming party 1 with ErrPeerDown", err)
		}
	})
}

// TestTCPCloseIdempotentAndGoroutineClean pins the teardown contract the
// abort paths rely on: Close may be called repeatedly and concurrently —
// including while receives are in flight — and when the dust settles no
// goroutine survives (eachStack's leak check) and pending receives have
// failed with ErrClosed rather than hanging.
func TestTCPCloseIdempotentAndGoroutineClean(t *testing.T) {
	eachStack(t, func(t *testing.T, s tcpStack) {
		ends := s.build(t, 3, stackTimeout)
		recvDone := make(chan error, 1)
		go func() {
			_, err := ends[0].RecvCtx(context.Background(), 0, 1, 7)
			recvDone <- err
		}()
		time.Sleep(20 * time.Millisecond) // let the receive block

		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ends[0].Close()
			}()
		}
		wg.Wait()
		ends[0].Close() // and once more after the storm

		select {
		case err := <-recvDone:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("in-flight receive got %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("in-flight receive hung through Close")
		}
		// A send into a closed endpoint must not panic or hang, and where
		// nothing buffers for a reconnect it must error.
		err := ends[0].Send(7, 0, 1, 1, wirePayload{From: 0, Text: "late"})
		if err == nil && !s.recovers {
			t.Error("send after Close succeeded")
		}
	})
}
