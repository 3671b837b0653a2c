package obsv

import (
	"testing"

	"groupranking/internal/telemetry"
)

// TestOpNamesExhaustive pins the exported name of every operation
// counter. The names are a wire format: traces, summaries and the
// grouprank_ops_total exposition all key on them, so adding an Op
// without a name — or renaming one — must fail loudly here, not
// silently export "unknown" or break downstream dashboards.
func TestOpNamesExhaustive(t *testing.T) {
	want := []string{
		"group_exp", "group_op", "group_inv",
		"elgamal_enc", "elgamal_dec",
		"proofs_made", "proofs_checked",
		"ss_mul", "ss_open", "ss_round",
		"field_mul",
		"msgs_sent", "bytes_sent",
		"echo_msgs_sent", "echo_bytes_sent",
		"recv_wait_us",
	}
	if got := int(numOps); got != len(want) {
		t.Fatalf("numOps = %d but %d names are pinned — name the new Op here and in every exporter", got, len(want))
	}
	seen := make(map[string]bool)
	for op := Op(0); op < numOps; op++ {
		name := op.String()
		if name != want[op] {
			t.Errorf("Op(%d).String() = %q, want %q", op, name, want[op])
		}
		if name == "unknown" || name == "" {
			t.Errorf("Op(%d) has no stable name", op)
		}
		if !telemetry.ValidName(name) {
			t.Errorf("Op(%d) name %q is not a valid metric name", op, name)
		}
		if seen[name] {
			t.Errorf("Op name %q is duplicated", name)
		}
		seen[name] = true
	}
	if got := numOps.String(); got != "unknown" {
		t.Errorf("out-of-range Op stringifies to %q, want \"unknown\"", got)
	}
	if got := Op(-1).String(); got != "unknown" {
		t.Errorf("negative Op stringifies to %q, want \"unknown\"", got)
	}
}
