package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"groupranking/internal/api"
	"groupranking/internal/transport"
	"groupranking/internal/wirecodec"
)

// peerRejectError carries a participant daemon's typed nack back to
// the creation flow, so handleCreate can map a peer's draining or
// admission_full to the matching retryable HTTP response.
type peerRejectError struct {
	code   string
	reason string
}

func (e *peerRejectError) Error() string {
	return fmt.Sprintf("service: peer daemon rejected the session (%s): %s", e.code, e.reason)
}

// The daemon control plane rides the session mux's control lane (one
// frame kind on the same multiplexed connections the sessions use, so
// no extra sockets): the initiator daemon announces a new session to
// every participant daemon with ctlOpen, each answers with its
// admission verdict in ctlOpenAck, and whichever daemon aborts a
// session first fans the cause out with ctlAbort so its peers cancel
// their runners instead of waiting out the session budget.
//
// The announced spec is scrubbed: the client's criterion is the
// initiator's private input and never crosses the mesh. The seed does
// travel — like the CLI party runners, a deterministic session needs
// every daemon deriving from the same seed.

// ctlOpen announces a session to a participant daemon.
type ctlOpen struct {
	ID   string
	Spec api.SessionSpec // Criterion scrubbed
}

// ctlOpenAck is a participant daemon's admission verdict. Code is the
// api.Code* cause on a rejection, so the initiator daemon can surface
// a peer's admission_full or draining to the client as the retryable
// condition it is (instead of a generic peer_rejected).
type ctlOpenAck struct {
	ID     string
	OK     bool
	Code   string
	Reason string
}

// ctlAbort tells peers a session is dead and why.
type ctlAbort struct {
	ID     string
	Reason string
}

// Wire codecs for the three control messages. The announced spec rides
// as its JSON wire contract (the same one POST /v1/sessions and the
// session table use) inside one length-prefixed field, decoded as
// strictly as an HTTP body; admitAnnounced then validates it like any
// other spec.
func init() {
	wirecodec.Register(wirecodec.IDRangeService, "session open",
		[]any{ctlOpen{}},
		func(dst []byte, v any) ([]byte, error) {
			open := v.(ctlOpen)
			spec, err := json.Marshal(open.Spec)
			if err != nil {
				return nil, err
			}
			dst = wirecodec.AppendString(dst, open.ID)
			return wirecodec.AppendBytes(dst, spec), nil
		},
		func(data []byte) (any, error) {
			r := wirecodec.NewReader(data)
			open := ctlOpen{ID: r.String()}
			spec := r.Bytes()
			if err := r.Finish(); err != nil {
				return nil, fmt.Errorf("service: session open: %w", err)
			}
			dec := json.NewDecoder(bytes.NewReader(spec))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&open.Spec); err != nil {
				return nil, fmt.Errorf("service: session open: spec: %w", err)
			}
			if _, err := dec.Token(); err != io.EOF {
				return nil, fmt.Errorf("service: session open: trailing data after spec")
			}
			return open, nil
		})

	wirecodec.Register(wirecodec.IDRangeService+1, "session open ack",
		[]any{ctlOpenAck{}},
		func(dst []byte, v any) ([]byte, error) {
			ack := v.(ctlOpenAck)
			dst = wirecodec.AppendString(dst, ack.ID)
			dst = wirecodec.AppendBool(dst, ack.OK)
			dst = wirecodec.AppendString(dst, ack.Code)
			return wirecodec.AppendString(dst, ack.Reason), nil
		},
		func(data []byte) (any, error) {
			r := wirecodec.NewReader(data)
			ack := ctlOpenAck{ID: r.String(), OK: r.Bool(), Code: r.String(), Reason: r.String()}
			if err := r.Finish(); err != nil {
				return nil, fmt.Errorf("service: session open ack: %w", err)
			}
			return ack, nil
		})

	wirecodec.Register(wirecodec.IDRangeService+2, "session abort",
		[]any{ctlAbort{}},
		func(dst []byte, v any) ([]byte, error) {
			ab := v.(ctlAbort)
			dst = wirecodec.AppendString(dst, ab.ID)
			return wirecodec.AppendString(dst, ab.Reason), nil
		},
		func(data []byte) (any, error) {
			r := wirecodec.NewReader(data)
			ab := ctlAbort{ID: r.String(), Reason: r.String()}
			if err := r.Finish(); err != nil {
				return nil, fmt.Errorf("service: session abort: %w", err)
			}
			return ab, nil
		})
}

// controlLoop dispatches incoming control frames until shutdown.
func (d *Daemon) controlLoop() {
	defer d.wg.Done()
	for {
		select {
		case <-d.ctx.Done():
			return
		case <-d.mux.Done():
			return
		case msg := <-d.mux.Control():
			switch p := msg.Payload.(type) {
			case ctlOpen:
				d.onOpen(msg.From, p)
			case ctlOpenAck:
				d.onOpenAck(p)
			case ctlAbort:
				d.onAbort(p)
			}
		}
	}
}

// onOpen handles a session announcement at a participant daemon:
// validate the spec, admit under the cap, register the pending session
// and return the verdict to the initiator daemon.
func (d *Daemon) onOpen(from int, open ctlOpen) {
	ack := ctlOpenAck{ID: open.ID, OK: true}
	if err := d.admitAnnounced(open); err != nil {
		ack.OK = false
		ack.Reason = err.Error()
		switch {
		case errors.Is(err, errDraining):
			ack.Code = api.CodeDraining
		case errors.Is(err, errAdmissionFull):
			ack.Code = api.CodeAdmissionFull
		default:
			ack.Code = api.CodePeerRejected
		}
	}
	// Best effort: if the link back to the initiator died the sessions
	// on it are already failing with a typed peer-down abort.
	if err := d.mux.SendControl(from, ack); err != nil && ack.OK {
		if s := d.lookup(open.ID); s != nil {
			d.terminate(s, fmt.Errorf("service: acking session open to daemon %d: %w", from, err))
		}
	}
}

// admitAnnounced validates and registers an announced session.
func (d *Daemon) admitAnnounced(open ctlOpen) error {
	if d.cfg.Me == 0 {
		return fmt.Errorf("service: the initiator daemon does not take session announcements")
	}
	if open.ID == "" {
		return fmt.Errorf("service: empty session id")
	}
	params, q, timeout, err := d.resolveSpec(open.Spec)
	if err != nil {
		return err
	}
	s := &session{
		id:      open.ID,
		spec:    open.Spec,
		params:  params,
		q:       q,
		timeout: timeout,
		created: time.Now(),
		state:   api.StatePending,
	}
	if err := d.register(s); err != nil {
		return err
	}
	// Durable mode: the admission must survive a crash — a participant
	// that forgot an announced session could never serve its resume
	// half. A failed table write refuses the session cleanly.
	if d.store != nil {
		if err := d.store.logOpen(s.id, s.spec, s.created); err != nil {
			d.unregister(s)
			return err
		}
	}
	return nil
}

// onOpenAck routes a participant's verdict to the creation flow
// waiting on it.
func (d *Daemon) onOpenAck(ack ctlOpenAck) {
	d.mu.Lock()
	ch := d.acks[ack.ID]
	d.mu.Unlock()
	if ch != nil {
		select {
		case ch <- ack:
		default: // creation flow gave up; verdict is moot
		}
	}
}

// onAbort cancels the local half of a session a peer daemon declared
// dead.
func (d *Daemon) onAbort(ab ctlAbort) {
	if s := d.lookup(ab.ID); s != nil {
		d.terminate(s, fmt.Errorf("service: peer abort: %s", ab.Reason))
	}
}

// broadcastAbort fans a session's death out to every peer daemon.
// Best effort: a dead link means the peer is already aborting on its
// own timeout or peer-down signal.
func (d *Daemon) broadcastAbort(id string, cause error) {
	ab := ctlAbort{ID: id, Reason: cause.Error()}
	for peer := 0; peer < len(d.cfg.Addrs); peer++ {
		if peer == d.cfg.Me {
			continue
		}
		_ = d.mux.SendControl(peer, ab)
	}
}

// announceSession runs the initiator daemon's creation fan-out: every
// participant daemon gets the scrubbed spec and must ack admission
// before the session is considered open mesh-wide. A single nack,
// a dead peer or an ack timeout kills the creation; peers that already
// admitted are told to drop it.
func (d *Daemon) announceSession(ctx context.Context, s *session) error {
	scrubbed := s.spec
	scrubbed.Criterion = api.Criterion{}
	peers := len(d.cfg.Addrs) - 1
	ackCh := make(chan ctlOpenAck, peers)
	d.mu.Lock()
	d.acks[s.id] = ackCh
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		delete(d.acks, s.id)
		d.mu.Unlock()
	}()
	fail := func(err error) error {
		d.broadcastAbort(s.id, err)
		return err
	}
	for peer := 1; peer < len(d.cfg.Addrs); peer++ {
		if err := d.mux.SendControl(peer, ctlOpen{ID: s.id, Spec: scrubbed}); err != nil {
			return fail(fmt.Errorf("service: announcing session to daemon %d: %w", peer, err))
		}
	}
	deadline := time.NewTimer(s.timeout)
	defer deadline.Stop()
	for got := 0; got < peers; got++ {
		select {
		case ack := <-ackCh:
			if !ack.OK {
				code := ack.Code
				if code == "" {
					code = api.CodePeerRejected
				}
				return fail(&peerRejectError{code: code, reason: ack.Reason})
			}
		case <-deadline.C:
			return fail(fmt.Errorf("service: %w: session announcement unacked after %v", transport.ErrTimeout, s.timeout))
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-d.ctx.Done():
			return fail(fmt.Errorf("service: %w: daemon shutting down", transport.ErrClosed))
		}
	}
	return nil
}
