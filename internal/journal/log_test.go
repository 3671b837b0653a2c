package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var testFormat = Format{Magic: "TEST1\n", Name: "test log"}

// frame is one length ‖ crc32 ‖ body frame, written by hand.
func frame(body []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(body))
	return append(hdr[:], body...)
}

// TestTornHeaderBoundsAllocation: a torn tail whose header claims 1 GiB
// is cut without allocating what it claims — a length is trusted only
// up to the bytes left in the file.
func TestTornHeaderBoundsAllocation(t *testing.T) {
	path := SessionPath(t.TempDir(), "alloc", 0)
	j := open(t, path)
	if err := j.LogSend(1, 0, 10, 0, "msg"); err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var torn [frameHeader + 1]byte
	binary.LittleEndian.PutUint32(torn[:4], 1<<30)
	if _, err := f.Write(torn[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	j2, err := Open(path)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("Open allocated %d bytes for a %d-byte torn tail", alloc, len(torn))
	}
	if sent, _ := j2.SentTo(1); len(sent) != 1 {
		t.Fatalf("got %d sends after the torn tail, want 1", len(sent))
	}
}

// intactPrefix is the tail rule's reference: the bodies of the frames of
// data up to the first bad one, and the bytes they span.
func intactPrefix(data []byte) (bodies [][]byte, n int) {
	for len(data)-n >= frameHeader {
		size := uint64(binary.LittleEndian.Uint32(data[n:]))
		if size == 0 || size > uint64(len(data)-n-frameHeader) {
			break
		}
		body := data[n+frameHeader : n+frameHeader+int(size)]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[n+4:]) {
			break
		}
		bodies = append(bodies, body)
		n += frameHeader + int(size)
	}
	return bodies, n
}

// FuzzOpenLog: arbitrary file contents never panic OpenLog, nothing past
// a bad frame ever reaches the fold, and a successful open leaves
// exactly the intact frames on disk. A body starting 0xff stands for
// one the fold cannot decode.
func FuzzOpenLog(f *testing.F) {
	ab := append(frame([]byte("a")), frame([]byte("bc"))...)
	f.Add(ab)
	f.Add(append(ab, 0x50))
	f.Add(append(frame([]byte("a")), 0xff, 0, 0, 0x40, 1, 2, 3, 4, 5))
	f.Add(append(ab[:len(ab)-1], 'x'))
	f.Add(append(append(frame([]byte("a")), make([]byte, 24)...), frame([]byte("b"))...))
	f.Add(append(frame([]byte{0xff}), ab...))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "fuzz.log")
		if err := os.WriteFile(path, append([]byte(testFormat.Magic), data...), 0o644); err != nil {
			t.Fatal(err)
		}
		var got [][]byte
		l, err := OpenLog(path, testFormat, func(body []byte) error {
			if body[0] == 0xff {
				return errors.New("undecodable")
			}
			got = append(got, append([]byte(nil), body...))
			return nil
		})
		want, n := intactPrefix(data)
		if len(got) > len(want) {
			t.Fatalf("fold saw %d bodies, only %d frames precede the first bad one", len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("body %d = %x, want %x", i, got[i], want[i])
			}
		}
		if err != nil {
			return
		}
		defer l.Close()
		if len(got) != len(want) {
			t.Fatalf("open succeeded after folding %d of %d intact bodies", len(got), len(want))
		}
		if disk, _ := os.ReadFile(path); !bytes.Equal(disk[len(testFormat.Magic):], data[:n]) {
			t.Fatalf("open left %d record bytes on disk, want the %d intact ones", len(disk)-len(testFormat.Magic), n)
		}
	})
}
