package journal

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"groupranking/internal/transport"
	"groupranking/internal/wirecodec"
)

func open(t *testing.T, path string) *Journal {
	t.Helper()
	j, err := Open(path)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return j
}

// TestRoundTrip covers the full first-run-then-restart lifecycle: pin,
// seed, epoch, message appends, close, reopen, replay.
func TestRoundTrip(t *testing.T) {
	path := SessionPath(t.TempDir(), "sess", 1)
	j := open(t, path)
	if err := j.pinSession([]byte("fingerprint-1")); err != nil {
		t.Fatalf("PinSession: %v", err)
	}
	seed, err := j.sessionSeed("demo-seed")
	if err != nil || seed != "demo-seed" {
		t.Fatalf("SessionSeed: %q, %v", seed, err)
	}
	if ep, err := j.beginEpoch(); err != nil || ep != 1 {
		t.Fatalf("BeginEpoch: %d, %v", ep, err)
	}
	if err := j.LogSend(0, 3, 40, 0, "hello"); err != nil {
		t.Fatalf("LogSend: %v", err)
	}
	if err := j.LogSend(0, 4, 41, 1, "world"); err != nil {
		t.Fatalf("LogSend: %v", err)
	}
	if err := j.LogRecv(2, 5, 42, 0, 99); err != nil {
		t.Fatalf("LogRecv: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// The restarted process sees everything back.
	j2 := open(t, path)
	defer j2.Close()
	if err := j2.pinSession([]byte("fingerprint-1")); err != nil {
		t.Fatalf("PinSession on reopen: %v", err)
	}
	// Empty seed on restart resolves to the journaled one.
	if seed, err := j2.sessionSeed(""); err != nil || seed != "demo-seed" {
		t.Fatalf("SessionSeed on reopen: %q, %v", seed, err)
	}
	if ep := j2.Epoch(); ep != 1 {
		t.Fatalf("Epoch on reopen: %d, want 1", ep)
	}
	if ep, err := j2.beginEpoch(); err != nil || ep != 2 {
		t.Fatalf("BeginEpoch on reopen: %d, %v", ep, err)
	}
	sent, err := j2.SentTo(0)
	if err != nil {
		t.Fatalf("SentTo: %v", err)
	}
	want := []transport.JournalMsg{
		{Round: 3, Seq: 0, Bytes: 40, Payload: "hello"},
		{Round: 4, Seq: 1, Bytes: 41, Payload: "world"},
	}
	if len(sent) != len(want) {
		t.Fatalf("SentTo(0): %d messages, want %d", len(sent), len(want))
	}
	for i, m := range sent {
		if m != want[i] {
			t.Errorf("SentTo(0)[%d] = %+v, want %+v", i, m, want[i])
		}
	}
	recv, err := j2.RecvFrom(2)
	if err != nil {
		t.Fatalf("RecvFrom: %v", err)
	}
	if len(recv) != 1 || recv[0].Payload != 99 || recv[0].Round != 5 {
		t.Fatalf("RecvFrom(2) = %+v", recv)
	}
	if s, err := j2.SentTo(2); err != nil || len(s) != 0 {
		t.Fatalf("SentTo(2) = %v, %v; want empty", s, err)
	}
}

// TestTornTail simulates a crash mid-append: trailing garbage and a
// half-written frame must be truncated away on reopen, keeping every
// intact record.
func TestTornTail(t *testing.T) {
	for name, tail := range map[string][]byte{
		"short header":   {0x50},
		"truncated body": {0xff, 0x00, 0x00, 0x00, 0x12, 0x34, 0x56, 0x78, 0x01, 0x02},
	} {
		t.Run(name, func(t *testing.T) {
			path := SessionPath(t.TempDir(), "torn", 0)
			j := open(t, path)
			if err := j.pinSession([]byte("fp")); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := j.LogSend(1, i, 10, uint64(i), "msg"); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tail); err != nil {
				t.Fatal(err)
			}
			f.Close()

			j2 := open(t, path)
			defer j2.Close()
			sent, err := j2.SentTo(1)
			if err != nil {
				t.Fatalf("SentTo after torn tail: %v", err)
			}
			if len(sent) != 3 {
				t.Fatalf("got %d intact sends, want 3", len(sent))
			}
			// The tail is gone for good: appending works and a further
			// reopen sees four records.
			if err := j2.LogSend(1, 9, 10, 3, "after"); err != nil {
				t.Fatalf("append after truncation: %v", err)
			}
			j2.Close()
			j3 := open(t, path)
			defer j3.Close()
			if sent, _ := j3.SentTo(1); len(sent) != 4 {
				t.Fatalf("got %d sends after recovery append, want 4", len(sent))
			}
		})
	}
}

// TestCorruptTailTruncated flips a byte in the final record: the
// checksum catches it and the record is dropped.
func TestCorruptTailTruncated(t *testing.T) {
	path := SessionPath(t.TempDir(), "corrupt", 0)
	j := open(t, path)
	for i := 0; i < 2; i++ {
		if err := j.LogSend(1, i, 10, uint64(i), "msg"); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j2 := open(t, path)
	defer j2.Close()
	if sent, _ := j2.SentTo(1); len(sent) != 1 {
		t.Fatalf("got %d sends after corrupt tail, want 1", len(sent))
	}
}

// TestMidFileCorruptionRefused: a bad record with intact records after
// it is corruption, not a torn tail. Open and Scan refuse it, naming the
// file and offset, instead of cutting the file there and silently
// dropping every later send and the later epochs (a restarted party
// would then present a stale epoch to its peers). A checksum-valid
// record that does not decode is refused the same way.
func TestMidFileCorruptionRefused(t *testing.T) {
	for name, corrupt := range map[string]func(raw []byte, second int64) []byte{
		"byte flipped in the 2nd of 5 records": func(raw []byte, second int64) []byte {
			raw[second+frameHeader+3] ^= 0xff
			return raw
		},
		"undecodable record at the tail": func(raw []byte, _ int64) []byte {
			body := []byte("not a record")
			var hdr [frameHeader]byte
			binary.LittleEndian.PutUint32(hdr[:4], uint32(len(body)))
			binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(body))
			return append(append(raw, hdr[:]...), body...)
		},
	} {
		t.Run(name, func(t *testing.T) {
			path := SessionPath(t.TempDir(), "mid", 0)
			j := open(t, path)
			if _, err := j.beginEpoch(); err != nil {
				t.Fatal(err)
			}
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			second := info.Size()
			for i := 0; i < 3; i++ {
				if err := j.LogSend(1, i, 10, uint64(i), "msg"); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := j.beginEpoch(); err != nil {
				t.Fatal(err)
			}
			j.Close()
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw = corrupt(raw, second)
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = Open(path)
			if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "offset") {
				t.Fatalf("Open on a corrupt journal: %v; want an error naming the file and offset", err)
			}
			if _, err := Scan(path); err == nil {
				t.Fatal("Scan accepted a corrupt journal")
			}
			if after, _ := os.ReadFile(path); len(after) != len(raw) {
				t.Fatalf("the refused journal was cut from %d to %d bytes", len(raw), len(after))
			}
		})
	}
}

// TestPinSessionMismatch: a journal can never be resumed into a
// different session (changed flags change the fingerprint).
func TestPinSessionMismatch(t *testing.T) {
	path := SessionPath(t.TempDir(), "pin", 0)
	j := open(t, path)
	if err := j.pinSession([]byte("original")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2 := open(t, path)
	defer j2.Close()
	if err := j2.pinSession([]byte("different")); err == nil {
		t.Fatal("PinSession accepted a different fingerprint")
	}
}

// TestSessionSeed covers seed resolution: explicit conflicts fail,
// empty first runs fail, restarts inherit.
func TestSessionSeed(t *testing.T) {
	path := SessionPath(t.TempDir(), "seed", 0)
	j := open(t, path)
	if _, err := j.sessionSeed(""); err == nil {
		t.Fatal("empty seed on a fresh journal must fail")
	}
	if _, err := j.sessionSeed("alpha"); err != nil {
		t.Fatal(err)
	}
	// Same explicit seed is fine; a different one is not.
	if s, err := j.sessionSeed("alpha"); err != nil || s != "alpha" {
		t.Fatalf("re-resolving same seed: %q, %v", s, err)
	}
	if _, err := j.sessionSeed("beta"); err == nil {
		t.Fatal("conflicting explicit seed must fail")
	}
	j.Close()
}

// TestOpenSessionSeedRule covers every branch of the one cross-process
// seed rule: an explicit seed wins (with or without a journal), a
// restart without one gets the journaled seed, a first run without one
// draws and journals a fresh seed, and with no journal directory
// nothing is opened or written.
func TestOpenSessionSeedRule(t *testing.T) {
	reopen := func(t *testing.T, dir, seed string) (string, error) {
		t.Helper()
		j, got, err := OpenSession(dir, "rule", 1, seed, nil)
		if err == nil {
			j.Close()
		}
		return got, err
	}
	t.Run("explicit", func(t *testing.T) {
		dir := t.TempDir()
		if got, err := reopen(t, dir, "alpha"); err != nil || got != "alpha" {
			t.Fatalf("first open: %q, %v; want alpha", got, err)
		}
		if got, err := reopen(t, dir, "alpha"); err != nil || got != "alpha" {
			t.Fatalf("reopen with the same seed: %q, %v; want alpha", got, err)
		}
		if _, err := reopen(t, dir, "beta"); err == nil {
			t.Fatal("reopen with a contradicting seed accepted")
		}
	})
	t.Run("journaled", func(t *testing.T) {
		dir := t.TempDir()
		first, err := reopen(t, dir, "alpha")
		if err != nil {
			t.Fatal(err)
		}
		if got, err := reopen(t, dir, ""); err != nil || got != first {
			t.Fatalf("restart without a seed: %q, %v; want the journaled %q", got, err, first)
		}
	})
	t.Run("drawn", func(t *testing.T) {
		dir := t.TempDir()
		first, err := reopen(t, dir, "")
		if err != nil || first == "" {
			t.Fatalf("first open without a seed: %q, %v; want a drawn seed", first, err)
		}
		if got, err := reopen(t, dir, ""); err != nil || got != first {
			t.Fatalf("restart: %q, %v; want the first life's drawn %q", got, err, first)
		}
		if other, err := reopen(t, t.TempDir(), ""); err != nil || other == first {
			t.Fatalf("another journal drew %q, %v; want a fresh seed", other, err)
		}
	})
	t.Run("no journal directory", func(t *testing.T) {
		before, err := os.ReadDir(".")
		if err != nil {
			t.Fatal(err)
		}
		j, got, err := OpenSession("", "rule", 1, "alpha", nil)
		if err != nil || j != nil || got != "alpha" {
			t.Fatalf("explicit seed: journal %v, seed %q, %v; want no journal and alpha", j, got, err)
		}
		var drawn [2]string
		for i := range drawn {
			if j, drawn[i], err = OpenSession("", "rule", 1, "", nil); err != nil || j != nil || drawn[i] == "" {
				t.Fatalf("no seed: journal %v, seed %q, %v; want no journal and a drawn seed", j, drawn[i], err)
			}
		}
		if drawn[0] == drawn[1] {
			t.Fatalf("two draws gave the same seed %q", drawn[0])
		}
		after, err := os.ReadDir(".")
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != len(before) {
			t.Fatalf("%d entries in the working directory after, %d before: a file was created", len(after), len(before))
		}
		if _, err := os.Stat(SessionPath("", "rule", 1)); !os.IsNotExist(err) {
			t.Fatalf("journal file exists: %v", err)
		}
	})
}

// TestOpenRejectsForeignFile: Open must not wade into a file that is
// not a journal.
func TestOpenRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-journal")
	if err := os.WriteFile(path, []byte("something else entirely"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil || !strings.Contains(err.Error(), "not a session journal") {
		t.Fatalf("Open on foreign file: %v", err)
	}
}

// TestScan reads records without write access and tolerates a torn
// tail, so tests can watch a live journal from outside the process.
func TestScan(t *testing.T) {
	path := SessionPath(t.TempDir(), "scan", 2)
	j := open(t, path)
	j.pinSession([]byte("fp"))
	j.beginEpoch()
	j.LogSend(0, 7, 10, 0, "x")
	j.Close()
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	f.Write([]byte{0x01, 0x02}) // torn tail
	f.Close()

	recs, err := Scan(path)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	kinds := make([]Kind, len(recs))
	for i, r := range recs {
		kinds[i] = r.Kind
	}
	want := []Kind{KindSession, KindEpoch, KindSent}
	if len(kinds) != len(want) {
		t.Fatalf("Scan kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("Scan kinds = %v, want %v", kinds, want)
		}
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	// Scan on a missing file surfaces the os error.
	if _, err := Scan(filepath.Join(t.TempDir(), "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Scan(missing): %v", err)
	}
}

// TestAppendAfterClose: appends to a closed journal fail loudly rather
// than writing to a closed file.
func TestAppendAfterClose(t *testing.T) {
	j := open(t, SessionPath(t.TempDir(), "closed", 0))
	j.Close()
	if err := j.LogSend(1, 0, 10, 0, "late"); err == nil {
		t.Fatal("LogSend after Close must fail")
	}
	if err := j.Sync(); err == nil {
		t.Fatal("Sync after Close must fail")
	}
}

// TestConcurrentAppend: the transport's reader pumps journal receives
// while the protocol goroutine journals sends; both must be safe.
func TestConcurrentAppend(t *testing.T) {
	path := SessionPath(t.TempDir(), "conc", 0)
	j := open(t, path)
	done := make(chan error, 2)
	go func() {
		for i := 0; i < 200; i++ {
			if err := j.LogSend(1, i, 8, uint64(i), "s"); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	go func() {
		for i := 0; i < 200; i++ {
			if err := j.LogRecv(2, i, 8, uint64(i), "r"); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	j2 := open(t, path)
	defer j2.Close()
	sent, _ := j2.SentTo(1)
	recv, _ := j2.RecvFrom(2)
	if len(sent) != 200 || len(recv) != 200 {
		t.Fatalf("got %d sends / %d recvs, want 200/200", len(sent), len(recv))
	}
	for i, m := range sent {
		if m.Seq != uint64(i) {
			t.Fatalf("send order broken at %d: seq %d", i, m.Seq)
		}
	}
}

// TestRecordSizePinned pins the on-disk cost of one journaled message.
// The gob-era journal re-emitted the payload type's full descriptor set
// in EVERY record (a fresh encoder per record), so small messages paid
// a multiple of their size in framing; the binary record layout plus
// the wirecodec payload frame is descriptor-free. The numbers below are
// exact — the encoding is fixed-width and deterministic — so any
// regression that reintroduces per-record type tables fails this test
// by a wide margin, not a flaky threshold.
func TestRecordSizePinned(t *testing.T) {
	path := SessionPath(t.TempDir(), "size", 0)
	j := open(t, path)
	defer j.Close()
	base, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	const (
		payloadLen = 64
		records    = 100
		// frame header 8 (len+crc) + record body 37 (kind 1, peer 8,
		// round 8, seq 8, bytes 8, data length prefix 4) + payload frame
		// 77 (wirecodec header 9 + byte-slice body 4+64).
		wantPerRecord = 8 + 37 + 9 + 4 + payloadLen
	)
	payload := make([]byte, payloadLen)
	for i := 0; i < records; i++ {
		if err := j.LogSend(1, 7, payloadLen, uint64(i), payload); err != nil {
			t.Fatalf("LogSend %d: %v", i, err)
		}
	}
	grown, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	perRecord := (grown.Size() - base.Size()) / records
	if perRecord != wantPerRecord {
		t.Errorf("bytes per journaled record: %d, want %d", perRecord, wantPerRecord)
	}

	// Every record must cost the same: a first-record-only discount (or
	// surcharge) is the signature of stateful framing creeping back in.
	if total, want := grown.Size()-base.Size(), int64(records*wantPerRecord); total != want {
		t.Errorf("total growth %d bytes, want %d", total, want)
	}
}

// TestParentBuildJournalResumes: a recovering party's journal written
// by the build before the recovering mux resumes on this one. That
// build numbered each peer's messages from 0 where the mux numbers from
// 1; the mux takes sequence numbers from journal positions, never from
// the records, so the off-by-one cannot shift a stream. Here both
// parties of a session crashed mid-run on such journals — party 1 had
// sent m1 and m3 and received m2, party 0 had received m1 and sent m2 —
// and restart (epoch 2): each recomputes its script from the top, m3
// reaches party 0 by resume, m4 flows live, and both drain.
func TestParentBuildJournalResumes(t *testing.T) {
	dir := t.TempDir()
	addrs, err := transport.FreeLoopbackAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	firstLife := func(me int, records func(j *Journal) error) {
		j := open(t, SessionPath(dir, "parent", me))
		defer j.Close()
		if _, err := j.beginEpoch(); err != nil {
			t.Fatal(err)
		}
		if err := records(j); err != nil {
			t.Fatal(err)
		}
	}
	firstLife(0, func(j *Journal) error {
		return errors.Join(j.LogRecv(1, 1, 8, 0, "m1"), j.LogSend(1, 2, 8, 0, "m2"))
	})
	firstLife(1, func(j *Journal) error {
		return errors.Join(j.LogSend(0, 1, 8, 0, "m1"), j.LogRecv(0, 2, 8, 0, "m2"), j.LogSend(0, 3, 8, 1, "m3"))
	})

	fabrics := make([]*transport.TCPFabric, 2)
	for me := range fabrics {
		j := open(t, SessionPath(dir, "parent", me))
		defer j.Close()
		epoch, err := j.beginEpoch()
		if err != nil || epoch != 2 {
			t.Fatalf("party %d restart epoch %d, %v", me, epoch, err)
		}
		fabrics[me], err = transport.OpenTCPFabric(addrs, me, 5*time.Second,
			transport.MuxOptions{Recovery: &transport.MuxRecovery{Epoch: epoch}}, "parent", j)
		if err != nil {
			t.Fatalf("party %d on its parent-build journal: %v", me, err)
		}
		defer fabrics[me].Close()
	}
	f0, f1 := fabrics[0], fabrics[1]
	recv := func(f *transport.TCPFabric, to, from, round int, want string) {
		t.Helper()
		got, err := f.RecvCtx(context.Background(), to, from, round)
		if err != nil || got != want {
			t.Fatalf("party %d round %d: got %v, %v; want %q", to, round, got, err, want)
		}
	}
	send := func(f *transport.TCPFabric, from, to, round int, msg string) {
		t.Helper()
		if err := f.Send(round, from, to, 8, msg); err != nil {
			t.Fatalf("party %d round %d: %v", from, round, err)
		}
	}
	send(f1, 1, 0, 1, "m1")
	recv(f1, 1, 0, 2, "m2")
	send(f1, 1, 0, 3, "m3")
	recv(f0, 0, 1, 1, "m1")
	send(f0, 0, 1, 2, "m2")
	recv(f0, 0, 1, 3, "m3")
	send(f0, 0, 1, 4, "m4")
	recv(f1, 1, 0, 4, "m4")

	drained := make(chan bool, 1)
	go func() { drained <- f1.Drain(5 * time.Second) }()
	if !f0.Drain(5*time.Second) || !<-drained {
		t.Fatal("the resumed session did not drain: some message was never delivered")
	}
}

// TestOtherWireVersionJournalRefused: a journal written by a build of
// another wire-format version opens (its records are GRJL2), but its
// message records are frames of that version, so replaying them is
// refused with the frame's VersionError — never misparsed. The record
// here is what a version-3 build journaled for an SS share batch: a
// type-5 frame of sign ‖ u32 len ‖ magnitude integers.
func TestOtherWireVersionJournalRefused(t *testing.T) {
	path := SessionPath(t.TempDir(), "v3", 1)
	j := open(t, path)
	payload := []byte{0, 0, 0, 1, 0, 0, 0, 0, 1, 7} // one integer, 7
	frame := wirecodec.AppendU32(binary.BigEndian.AppendUint16([]byte{'G', 'W', 3}, 5), uint32(len(payload)))
	frame = append(frame, payload...)
	j.mu.Lock()
	err := j.appendLocked(Record{Kind: KindRecv, Peer: 0, Round: 1, Seq: 1, Bytes: 8, Data: frame})
	j.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j = open(t, path)
	defer j.Close()
	var ve *wirecodec.VersionError
	if _, err := j.RecvFrom(0); !errors.As(err, &ve) || ve.Got != 3 {
		t.Fatalf("replaying a version-3 record: %v, want a VersionError for version 3", err)
	}
}
