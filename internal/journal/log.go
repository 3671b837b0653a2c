package journal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Log is the one durable-log primitive under the session journal and
// rankd's session table: an append-only file of length ‖ crc32 ‖ body
// frames behind a magic header. Framing, the torn-tail rule, flushing,
// fsync and compaction live here alone; a user owns its record bodies
// and the fold that replays them. A Log is not safe for concurrent use:
// its owner serializes calls.
//
// The tail rule: a frame that is short, or that fails its checksum and
// ends exactly at the end of the file, is a crash mid-append and is
// truncated away. A bad frame with bytes after it is corruption: cutting
// there would silently drop records the process already acted on. A
// zero-length frame is bad (the crc32 of nothing is 0, so zero-filled
// space would otherwise parse). A length is trusted only up to the
// bytes left in the file, so a torn header cannot inflate an allocation.
type Log struct {
	f      *os.File
	w      *bufio.Writer
	path   string
	format Format
	closed bool
}

// Format names one kind of log: the magic its files start with, which
// also versions the record layout, and what it is called in errors.
type Format struct {
	Magic string
	Name  string
}

// frameHeader is the length ‖ crc32 prefix of every frame.
const frameHeader = 8

// OpenLog creates the log at path, or reopens an existing one, feeding
// every intact record body to fold in order and truncating a torn tail.
// A body fold cannot decode is an error. fold must copy what it keeps.
func OpenLog(path string, format Format, fold func(body []byte) error) (*Log, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("journal: creating directory: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: opening %s: %w", path, err)
	}
	data, err := os.ReadFile(path)
	if err == nil && len(data) == 0 {
		data = []byte(format.Magic)
		_, err = f.Write(data)
	}
	end := 0
	if err == nil {
		end, err = replay(path, format, data, fold)
	}
	if err == nil && end < len(data) {
		err = f.Truncate(int64(end)) // the torn tail
	}
	if err == nil {
		_, err = f.Seek(int64(end), io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f, w: bufio.NewWriter(f), path: path, format: format}, nil
}

// replay walks a whole log file under the tail rule, folding every
// intact body, and returns the offset just past the last one.
func replay(path string, format Format, data []byte, fold func([]byte) error) (int, error) {
	if !bytes.HasPrefix(data, []byte(format.Magic)) {
		return 0, fmt.Errorf("journal: %s is not a %s", path, format.Name)
	}
	off := len(format.Magic)
	for off < len(data) {
		rest := data[off:]
		if len(rest) < frameHeader {
			return off, nil // torn header
		}
		size := uint64(binary.LittleEndian.Uint32(rest))
		if size > uint64(len(rest)-frameHeader) {
			return off, nil // torn body: the header promises more than the file holds
		}
		body := rest[frameHeader : frameHeader+int(size)]
		end := off + frameHeader + len(body)
		if len(body) == 0 || crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(rest[4:]) {
			if end == len(data) {
				return off, nil // torn final frame
			}
			return 0, fmt.Errorf("journal: %s is corrupt: bad record at offset %d with %d bytes after it", path, off, len(data)-end)
		}
		if err := fold(body); err != nil {
			return 0, fmt.Errorf("journal: %s: record at offset %d: %w", path, off, err)
		}
		off = end
	}
	return off, nil
}

// ScanLog replays the log at path without opening it for writing — the
// tooling and test view. It applies OpenLog's tail rule but cuts
// nothing, so it is safe on a log another process is appending to.
func ScanLog(path string, format Format, fold func(body []byte) error) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	_, err = replay(path, format, data, fold)
	return err
}

// writeFrame frames one body into w. An empty body would read back as a
// bad frame, so it is refused.
func writeFrame(w *bufio.Writer, body []byte) error {
	if len(body) == 0 {
		return fmt.Errorf("refusing an empty record")
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(body))
	w.Write(hdr[:])
	_, err := w.Write(body) // a bufio.Writer's error is sticky
	return err
}

// Append frames and writes one record and flushes it to the OS: a
// killed process then loses at most the record being written (which the
// next open truncates away), never one it already acted on.
func (l *Log) Append(body []byte) error {
	if err := writeFrame(l.w, body); err != nil {
		return fmt.Errorf("journal: appending to %s: %w", l.path, err)
	}
	return l.w.Flush()
}

// Sync forces every appended record to stable storage (fsync). Appends
// already survive process death; Sync extends that to machine crashes.
func (l *Log) Sync() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	return l.f.Sync()
}

// AppendSync is Append then Sync: once it returns, the record survives
// a machine crash too.
func (l *Log) AppendSync(body []byte) error {
	if err := l.Append(body); err != nil {
		return err
	}
	return l.Sync()
}

// Rewrite replaces the log's records with bodies atomically: the new
// file is written beside the old one, fsync'd and renamed over it, so a
// crash leaves one or the other, never a mix. Later appends go to the
// new file.
func (l *Log) Rewrite(bodies [][]byte) error {
	if l.closed {
		return fmt.Errorf("journal: %s is closed", l.path)
	}
	tmp := l.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: rewriting %s: %w", l.path, err)
	}
	w := bufio.NewWriter(f)
	w.WriteString(l.format.Magic)
	for _, body := range bodies {
		if err = writeFrame(w, body); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush() // reports any write error above too: it is sticky
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, l.path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("journal: rewriting %s: %w", l.path, err)
	}
	l.f.Close() // the replaced file: every append to it was flushed
	l.f, l.w = f, w
	return nil
}

// Close flushes and closes the file. Idempotent.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	return errors.Join(l.w.Flush(), l.f.Close())
}
