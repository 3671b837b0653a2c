package transport

import (
	"context"
	"testing"
)

func TestSubViewMapsIndicesAndRounds(t *testing.T) {
	f, err := New(5)
	if err != nil {
		t.Fatal(err)
	}
	// View of parties {1, 3, 4} as {0, 1, 2}, rounds shifted by 100.
	sv, err := NewSubView(f, []int{1, 3, 4}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if sv.N() != 3 {
		t.Fatalf("N = %d", sv.N())
	}
	if err := sv.Send(2, 0, 2, 9, "x"); err != nil {
		t.Fatal(err)
	}
	got, err := sv.RecvCtx(context.Background(), 2, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if got.(string) != "x" {
		t.Errorf("payload %v", got)
	}
	// The parent trace must show the mapped endpoints and shifted round.
	tr := f.Trace()
	if len(tr) != 1 {
		t.Fatalf("trace length %d", len(tr))
	}
	if tr[0] != (Event{Round: 102, From: 1, To: 4, Bytes: 9}) {
		t.Errorf("trace event %+v", tr[0])
	}
}

func TestSubViewBroadcastGather(t *testing.T) {
	f, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := NewSubView(f, []int{0, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.Broadcast(1, 1, 4, "b"); err != nil {
		t.Fatal(err)
	}
	// Member 1 (= parent party 2) sent to members 0 and 2 only.
	for _, to := range []int{0, 2} {
		got, err := sv.RecvCtx(context.Background(), to, 1, -1)
		if err != nil {
			t.Fatal(err)
		}
		if got.(string) != "b" {
			t.Errorf("member %d got %v", to, got)
		}
	}
	// GatherAll within the view.
	if err := sv.Send(2, 0, 2, 1, 10); err != nil {
		t.Fatal(err)
	}
	if err := sv.Send(2, 1, 2, 1, 20); err != nil {
		t.Fatal(err)
	}
	all, err := GatherAll(context.Background(), sv, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if all[0].(int) != 10 || all[1].(int) != 20 || all[2] != nil {
		t.Errorf("gathered %v", all)
	}
}

func TestSubViewValidation(t *testing.T) {
	f, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSubView(f, nil, 0); err == nil {
		t.Error("empty member list accepted")
	}
	if _, err := NewSubView(f, []int{0, 0}, 0); err == nil {
		t.Error("duplicate member accepted")
	}
	if _, err := NewSubView(f, []int{0, 5}, 0); err == nil {
		t.Error("out-of-range member accepted")
	}
	sv, err := NewSubView(f, []int{0, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.Send(0, 0, 5, 0, nil); err == nil {
		t.Error("out-of-range view index accepted by Send")
	}
	if _, err := sv.RecvCtx(context.Background(), 5, 0, -1); err == nil {
		t.Error("out-of-range view index accepted by Recv")
	}
}
