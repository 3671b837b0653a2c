package transport

import (
	"context"
	"fmt"
)

// Net is the messaging surface protocol code programs against. The
// in-memory *Fabric implements it directly, and every TCP stack through
// a *MuxSession (a TCPFabric carries one); all of them share one send
// ledger and one receive wait (endpoint.go). SubView
// implements it over a subset of a parent's parties so multi-phase
// frameworks can run an n-party subprotocol among a subset of n+1
// parties while keeping a single unified trace for network replay, and
// FaultNet wraps any implementation with fault injection. Gathering a
// round from every peer is one function over any Net, GatherAll.
type Net interface {
	// N is the number of addressable parties.
	N() int
	// Send delivers payload from one party to another.
	Send(round, from, to, bytes int, payload any) error
	// RecvCtx blocks until a message from the given peer arrives, the
	// context is cancelled, the implementation's timeout expires, or
	// the peer is known down. A non-negative round is the tag the
	// receiver expects; a mismatching arrival fails with an AbortError
	// (protocols have static round structure, so a mismatch proves a
	// shifted stream). Failures surface as *AbortError.
	RecvCtx(ctx context.Context, to, from, round int) (any, error)
	// Broadcast sends the payload to every other party.
	Broadcast(round, from, bytes int, payload any) error
}

var (
	_ Net = (*Fabric)(nil)
	_ Net = (*SubView)(nil)
)

// SubView presents members of a parent Net as a dense [0, len(members))
// party space, with all round tags shifted by roundOffset so phases keep
// distinct round numbers in the shared trace.
type SubView struct {
	parent      Net
	members     []int
	roundOffset int
}

// NewSubView validates the member list (distinct, valid parent indices)
// and returns the restricted view.
func NewSubView(parent Net, members []int, roundOffset int) (*SubView, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("transport: subview needs at least one member")
	}
	seen := make(map[int]bool, len(members))
	for _, m := range members {
		if m < 0 || m >= parent.N() {
			return nil, fmt.Errorf("transport: subview member %d outside parent range [0, %d)", m, parent.N())
		}
		if seen[m] {
			return nil, fmt.Errorf("transport: subview member %d duplicated", m)
		}
		seen[m] = true
	}
	cp := make([]int, len(members))
	copy(cp, members)
	return &SubView{parent: parent, members: cp, roundOffset: roundOffset}, nil
}

// N implements Net.
func (s *SubView) N() int { return len(s.members) }

func (s *SubView) check(idx int) error {
	if idx < 0 || idx >= len(s.members) {
		return fmt.Errorf("transport: subview index %d out of range [0, %d)", idx, len(s.members))
	}
	return nil
}

// Send implements Net.
func (s *SubView) Send(round, from, to, bytes int, payload any) error {
	if err := s.check(from); err != nil {
		return err
	}
	if err := s.check(to); err != nil {
		return err
	}
	return s.parent.Send(round+s.roundOffset, s.members[from], s.members[to], bytes, payload)
}

// RecvCtx implements Net. The expected round is shifted by the view's
// offset; AbortErrors come back naming the parent (global) party index
// and absolute round, which is what failure reports should show.
func (s *SubView) RecvCtx(ctx context.Context, to, from, round int) (any, error) {
	if err := s.check(to); err != nil {
		return nil, err
	}
	if err := s.check(from); err != nil {
		return nil, err
	}
	if round >= 0 {
		round += s.roundOffset
	}
	return s.parent.RecvCtx(ctx, s.members[to], s.members[from], round)
}

// Broadcast implements Net (n−1 best-effort unicasts within the view:
// every leg is attempted, the first error returned after all legs).
func (s *SubView) Broadcast(round, from, bytes int, payload any) error {
	return broadcastAll(len(s.members), from, func(to int) error {
		return s.Send(round, from, to, bytes, payload)
	})
}
