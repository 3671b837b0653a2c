package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"groupranking/internal/leakcheck"
	"groupranking/internal/wirecodec"
)

// Regression tests for three defects the four pre-link TCP stacks each
// had a different subset of. They are written once, against the link
// layer, and run over the stacks built on it.

// TestLinkRejectedDialerBacksOff: a dialer whose hello the acceptor
// drops (a stale epoch after a lost store, a wrong slot) gets no reply,
// so it must not count the link up: it redials under backoff — a
// handful of connects in half a second, not thousands — and its
// constructor fails instead of returning a mesh with a dead link.
func TestLinkRejectedDialerBacksOff(t *testing.T) {
	leakcheck.Check(t)
	dialers := map[string]func(addrs []string) (interface{ Close() }, error){
		"mux": func(addrs []string) (interface{ Close() }, error) {
			return NewSessionMux(addrs, 1, time.Second, MuxOptions{})
		},
		"mux recovering": func(addrs []string) (interface{ Close() }, error) {
			return NewSessionMux(addrs, 1, time.Second, MuxOptions{Recovery: &MuxRecovery{Epoch: 1}})
		},
		"recovering": func(addrs []string) (interface{ Close() }, error) {
			return OpenTCPFabric(addrs, 1, time.Second, MuxOptions{Recovery: &MuxRecovery{}}, "s", newMemJournal())
		},
	}
	// The rows run side by side: each constructor takes the full
	// formation deadline to give up.
	var wg sync.WaitGroup
	for name, dial := range dialers {
		name, dial := name, dial
		wg.Add(1)
		go func() {
			defer wg.Done()
			addrs, err := FreeLoopbackAddrs(2)
			if err != nil {
				t.Error(err)
				return
			}
			// Party 0 reads every hello and hangs up without a reply.
			ln, err := net.Listen("tcp", addrs[0])
			if err != nil {
				t.Error(err)
				return
			}
			defer ln.Close()
			var connects atomic.Int64
			go func() {
				for {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					connects.Add(1)
					wirecodec.ReadValue(bufio.NewReader(conn))
					conn.Close()
				}
			}()
			done := make(chan error, 1)
			go func() {
				end, err := dial(addrs)
				if err == nil {
					end.Close()
				}
				done <- err
			}()
			time.Sleep(500 * time.Millisecond)
			t.Logf("%s: %d connects in 500ms", name, connects.Load())
			if n := connects.Load(); n < 2 || n > 10 {
				t.Errorf("%s: %d connects in 500ms against a rejecting acceptor, want a backoff-bounded handful (2..10)", name, n)
			}
			select {
			case err := <-done:
				if err == nil {
					t.Errorf("%s: constructor returned success although no hello was ever answered", name)
				}
			case <-time.After(dialDeadline + 5*time.Second):
				t.Errorf("%s: constructor never gave up", name)
			}
		}()
	}
	wg.Wait()
}

// TestLinkCloseCutsSilentHandshake: a client that connects to the
// listener and then says nothing sits in the handshake read for
// handshakeDeadline; Close must cut it loose, not wait it out.
func TestLinkCloseCutsSilentHandshake(t *testing.T) {
	eachStack(t, func(t *testing.T, s tcpStack) {
		ends := s.build(t, 2, stackTimeout)
		link := linkOf(ends[0])
		conn, err := net.Dial("tcp", link.ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		deadline := time.Now().Add(5 * time.Second)
		for parked := 0; parked == 0; {
			link.mu.Lock()
			parked = len(link.handshakes)
			link.mu.Unlock()
			if time.Now().After(deadline) {
				t.Fatal("the silent client never reached the handshake")
			}
			time.Sleep(time.Millisecond)
		}
		start := time.Now()
		ends[0].Close()
		if took := time.Since(start); took > 500*time.Millisecond {
			t.Fatalf("Close took %v behind a silent client parked in the handshake (deadline %v)", took, handshakeDeadline)
		}
	})
}

// flakyListener fails its first Accept with a transient error.
type flakyListener struct {
	net.Listener
	failed atomic.Bool
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.failed.CompareAndSwap(false, true) {
		return nil, errors.New("accept: too many open files")
	}
	return l.Listener.Accept()
}

// TestLinkAcceptSurvivesTransientError: one failed Accept must not end
// accepting for good — the next connection still gets in, so the mesh
// forms and carries traffic.
func TestLinkAcceptSurvivesTransientError(t *testing.T) {
	listen = func(network, addr string) (net.Listener, error) {
		ln, err := net.Listen(network, addr)
		return &flakyListener{Listener: ln}, err
	}
	t.Cleanup(func() { listen = net.Listen })
	eachStack(t, func(t *testing.T, s tcpStack) {
		ends := s.build(t, 2, stackTimeout)
		if !linkOf(ends[0]).ln.(*flakyListener).failed.Load() {
			t.Fatal("the injected accept error never fired")
		}
		if err := ends[1].Send(1, 1, 0, 8, wirePayload{Text: "in"}); err != nil {
			t.Fatal(err)
		}
		if got, err := ends[0].RecvCtx(context.Background(), 0, 1, 1); err != nil || got != (wirePayload{Text: "in"}) {
			t.Fatalf("receive over the link accepted after the error: %#v, %v", got, err)
		}
	})
}

// TestForgedHelloCostsWhatArrived: the acceptor reads a hello from a
// connection that has not yet said who it is. A 9-byte hello header
// claiming wirecodec.MaxPayload (64 MiB) bytes, then three payload bytes
// and EOF, must cost what arrived, not what was claimed: readHello still
// fails on the EOF, and moves runtime.MemStats.TotalAlloc by under
// 64 KiB. The least of three tries is taken, so that an allocation of
// another goroutine cannot fail the test.
func TestForgedHelloCostsWhatArrived(t *testing.T) {
	frame, err := wirecodec.AppendValue(nil, hello{Party: 1, Mesh: "m"})
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(frame[5:9], wirecodec.MaxPayload)
	frame = frame[:9+3]
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		rd := bufio.NewReader(bytes.NewReader(frame))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := readHello(rd)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("readHello on a forged header = %v, want io.ErrUnexpectedEOF", err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 64<<10 {
		t.Fatalf("a forged hello header of 12 bytes allocated %d bytes", least)
	}
}

// TestLinkHandshakeCap: an endpoint holds at most handshakesPerParty
// connections per mesh party inside a hello exchange. With the cap
// filled by idle raw clients, one more is closed at once instead of
// pinning a goroutine and a reader for handshakeDeadline; once the idle
// clients leave, the genuine peer redials in and the link carries
// traffic again.
func TestLinkHandshakeCap(t *testing.T) {
	defer leakcheck.Check(t)
	_, fabrics := buildRecoveryMesh(t, 2, 0)
	link := fabrics[0].m.link
	limit := handshakesPerParty * len(link.addrs)
	inFlight := func() int {
		link.mu.Lock()
		defer link.mu.Unlock()
		return len(link.handshakes)
	}
	awaitInFlight := func(want int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); inFlight() != want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d connections in the handshake, want %d", inFlight(), want)
			}
		}
	}
	dial := func() net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", link.ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	idle := make([]net.Conn, limit)
	for i := range idle {
		idle[i] = dial()
	}
	awaitInFlight(limit)

	extra := dial()
	extra.SetReadDeadline(time.Now().Add(handshakeDeadline / 5))
	start := time.Now()
	_, err := extra.Read(make([]byte, 1))
	var ne net.Error
	if err == nil || errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection %d beyond the cap of %d: read %v after %v, want it closed at once", limit+1, limit, err, time.Since(start))
	}
	if inFlight() != limit {
		t.Fatalf("%d connections in the handshake after the refusal, want %d", inFlight(), limit)
	}

	for _, c := range idle {
		c.Close()
	}
	awaitInFlight(0)
	link.conn(1).Close()
	if err := fabrics[1].Send(1, 1, 0, 16, wirePayload{Text: "redialed"}); err != nil {
		t.Fatal(err)
	}
	if got, err := fabrics[0].RecvCtx(context.Background(), 0, 1, 1); err != nil || got != (wirePayload{Text: "redialed"}) {
		t.Fatalf("receive after the genuine peer redialed: %#v, %v", got, err)
	}
}
