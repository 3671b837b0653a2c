package transport

import (
	"fmt"
	"testing"
	"time"

	"groupranking/internal/wirecodec"
)

// wirePayload is the scaffolding payload the TCP-stack tests send. It
// has no reflection fallback to ride: like any type that crosses a
// process boundary it registers a codec, from the test-only ID block
// (wirecodec.IDRangeTest; +0 wirePayload, +1 digestMsg, +2 digestOther).
type wirePayload struct {
	From int
	Text string
}

func init() {
	wirecodec.Register(wirecodec.IDRangeTest, "test payload", []any{wirePayload{}},
		func(dst []byte, v any) ([]byte, error) {
			p := v.(wirePayload)
			return wirecodec.AppendString(wirecodec.AppendI64(dst, int64(p.From)), p.Text), nil
		},
		func(data []byte) (any, error) {
			r := wirecodec.NewReader(data)
			p := wirePayload{From: r.Int(), Text: r.String()}
			return p, r.Finish()
		})
}

func TestTCPConstructorValidation(t *testing.T) {
	if _, err := NewTCPFabric([]string{"127.0.0.1:0"}, 0, time.Second); err == nil {
		t.Error("single party accepted")
	}
	if _, err := NewTCPFabric([]string{"a", "b"}, 5, time.Second); err == nil {
		t.Error("out-of-range index accepted")
	}
	addrs := []string{"127.0.0.1:1", "127.0.0.1:2"}
	if _, err := OpenTCPFabric(addrs, 0, time.Second, MuxOptions{}, "s", nil); err == nil {
		t.Error("session ID on a fail-fast fabric accepted")
	}
	if _, err := OpenTCPFabric(addrs, 0, time.Second, MuxOptions{}, "", newMemJournal()); err == nil {
		t.Error("journal on a fail-fast fabric accepted")
	}
	if _, err := OpenTCPFabric(addrs, 0, time.Second, MuxOptions{Recovery: &MuxRecovery{}}, "", newMemJournal()); err == nil {
		t.Error("recovering fabric without a session ID accepted")
	}
	if _, err := OpenTCPFabric(addrs, 0, time.Second, MuxOptions{Recovery: &MuxRecovery{}}, "s", nil); err == nil {
		t.Error("recovering fabric without a journal accepted")
	}
}

func TestFreeLoopbackAddrs(t *testing.T) {
	addrs, err := FreeLoopbackAddrs(4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, a := range addrs {
		if seen[a] {
			t.Fatalf("duplicate address %s", a)
		}
		seen[a] = true
		if a == "" {
			t.Fatal("empty address")
		}
	}
	_ = fmt.Sprintf("%v", addrs)
}
