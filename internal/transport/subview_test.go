package transport

import (
	"context"
	"testing"
)

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
