// Package nettap records what every party of an in-process run sends.
// A Tap, for the golden-transcript tests, wraps the mesh's Net and
// hashes each frame a party sends — round, endpoints, charged size and
// the digest of the payload's wirecodec frame, the bytes a TCP mesh
// would put on the wire. A Recorder keeps the message trace netsim
// replays. Only tests import it.
package nettap

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"sync"

	"groupranking/internal/netsim"
	"groupranking/internal/transport"
)

// Tap is a transport.Net that hashes every frame before passing it on.
// Each party sends from its own goroutine, so the per-sender hashes need
// no lock.
type Tap struct {
	transport.Net
	sent []hash.Hash
}

// New wraps net, with one hash per party.
func New(net transport.Net) *Tap {
	t := &Tap{Net: net, sent: make([]hash.Hash, net.N())}
	for i := range t.sent {
		t.sent[i] = sha256.New()
	}
	return t
}

func (t *Tap) Send(round, from, to, bytes int, payload any) error {
	d, err := transport.PayloadDigest(payload)
	if err != nil {
		return err
	}
	var hdr [32]byte
	binary.BigEndian.PutUint64(hdr[0:], uint64(round))
	binary.BigEndian.PutUint64(hdr[8:], uint64(from))
	binary.BigEndian.PutUint64(hdr[16:], uint64(to))
	binary.BigEndian.PutUint64(hdr[24:], uint64(bytes))
	t.sent[from].Write(hdr[:])
	t.sent[from].Write(d)
	return t.Net.Send(round, from, to, bytes, payload)
}

// Broadcast is one Send per peer, so that a broadcast frame is hashed
// like the point-to-point frames it stands for.
func (t *Tap) Broadcast(round, from, bytes int, payload any) error {
	for to := 0; to < t.N(); to++ {
		if to == from {
			continue
		}
		if err := t.Send(round, from, to, bytes, payload); err != nil {
			return err
		}
	}
	return nil
}

// WriteSums writes each party's frame hash to h, party 0 first. Call it
// after the run.
func (t *Tap) WriteSums(h hash.Hash) {
	for _, s := range t.sent {
		h.Write(s.Sum(nil))
	}
}

// Recorder is a transport.Net that records every message sent through
// it as a netsim.Event, in send order. Echo digests are consistency-layer
// overhead and are left out, so the trace of a run with echo broadcast
// matches a semi-honest run's exactly.
type Recorder struct {
	transport.Net
	mu     sync.Mutex
	events []netsim.Event
}

// NewRecorder wraps net.
func NewRecorder(net transport.Net) *Recorder { return &Recorder{Net: net} }

// Send records the message before passing it on, so that a message's
// event always precedes the events of the replies it causes.
func (r *Recorder) Send(round, from, to, bytes int, payload any) error {
	if !transport.IsEchoRound(round) {
		r.mu.Lock()
		r.events = append(r.events, netsim.Event{Round: round, From: from, To: to, Bytes: bytes})
		r.mu.Unlock()
	}
	return r.Net.Send(round, from, to, bytes, payload)
}

// Broadcast is one Send per peer, so that each leg is recorded like the
// point-to-point message it stands for. Every leg is attempted; the
// first error is returned.
func (r *Recorder) Broadcast(round, from, bytes int, payload any) error {
	var first error
	for to := 0; to < r.N(); to++ {
		if to == from {
			continue
		}
		if err := r.Send(round, from, to, bytes, payload); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Events returns a copy of the recorded trace.
func (r *Recorder) Events() []netsim.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]netsim.Event(nil), r.events...)
}
