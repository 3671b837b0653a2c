// Package journal is the durable write-ahead log of the crash-recovery
// runtime: one append-only, checksummed file per party per session that
// records the pinned session identity, the party's drawn seed, every
// restart (epoch), and every round-tagged protocol message the party
// sent or received. Because all of a party's randomness is pre-drawn
// from its seed (the framework's transcripts are byte-identical given
// the seed), the journal plus the seed is a complete recovery image: a
// restarted process re-derives its computation deterministically,
// serves every journaled receive without touching the network, and
// resumes live at the first un-journaled message.
//
// The journal is one Log (log.go: framing, the torn-tail rule, flush and
// fsync) whose record bodies are a fixed-width binary encoding of the
// Record (kind, coordinates, then the payload as a self-contained
// wirecodec frame). Earlier versions gobbed each record independently,
// which re-emitted the full gob type descriptor set in EVERY record —
// for small protocol messages the descriptors outweighed the payload
// several times over. The binary form carries no per-record type
// tables; TestRecordSizePinned pins the bytes-per-record cost so a
// regression cannot creep back in.
package journal

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"groupranking/internal/fixedbig"
	"groupranking/internal/telemetry"
	"groupranking/internal/transport"
	"groupranking/internal/wirecodec"
)

// Kind discriminates journal records.
type Kind uint8

// Record kinds.
const (
	// KindSession pins the session identity (Data holds the
	// fingerprint). It must be the first record of every journal;
	// reopening with a different fingerprint fails, so a journal can
	// never be replayed into the wrong session.
	KindSession Kind = iota + 1
	// KindSeed records the party's resolved seed so a restart with an
	// empty -seed flag re-derives the same randomness.
	KindSeed
	// KindEpoch marks one process (re)start; the epoch number is the
	// count of these records and is carried in the reconnect handshake.
	KindEpoch
	// KindSent records one protocol message this party sent (Peer = to).
	KindSent
	// KindRecv records one protocol message this party received and
	// acted on (Peer = from). It is appended before the receive is
	// acknowledged to the sender, so an un-journaled message is always
	// still retransmittable.
	KindRecv
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindSession:
		return "session"
	case KindSeed:
		return "seed"
	case KindEpoch:
		return "epoch"
	case KindSent:
		return "sent"
	case KindRecv:
		return "recv"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Record is one journal entry. Sent/recv records carry the message's
// transport coordinates plus its encoded payload; the other kinds use
// Data (session fingerprint, seed) or Seq (epoch number) alone.
type Record struct {
	Kind  Kind
	Peer  int    // sent: destination; recv: source
	Round int    // protocol round tag
	Seq   uint64 // per-link sequence number (epoch records: epoch)
	Bytes int    // nominal wire bytes, preserved for exact stats replay
	Data  []byte // wirecodec payload frame (sent/recv), fingerprint (session), seed
}

// appendRecord writes the fixed-width binary body of one record: kind,
// coordinates, then the Data bytes. No type information — the layout IS
// the schema, and journalFormat's magic versions it.
func appendRecord(dst []byte, rec Record) []byte {
	dst = wirecodec.AppendU8(dst, uint8(rec.Kind))
	dst = wirecodec.AppendI64(dst, int64(rec.Peer))
	dst = wirecodec.AppendI64(dst, int64(rec.Round))
	dst = wirecodec.AppendU64(dst, rec.Seq)
	dst = wirecodec.AppendI64(dst, int64(rec.Bytes))
	return wirecodec.AppendBytes(dst, rec.Data)
}

// decodeRecord parses one record body (the bytes appendRecord produced).
func decodeRecord(body []byte) (Record, error) {
	r := wirecodec.NewReader(body)
	var rec Record
	rec.Kind = Kind(r.U8())
	rec.Peer = r.Int()
	rec.Round = r.Int()
	rec.Seq = r.U64()
	rec.Bytes = r.Int()
	rec.Data = r.Bytes()
	if err := r.Finish(); err != nil {
		return Record{}, fmt.Errorf("undecodable record: %w", err)
	}
	return rec, nil
}

// journalFormat's magic guards against feeding an arbitrary file to
// Open, and versions the record layout: GRJL1 framed gob-encoded
// records, GRJL2 frames the binary encoding above. There is no
// cross-version reader — a journal only ever needs to outlive the build
// that wrote it when that exact build restarts.
var journalFormat = Format{Magic: "GRJL2\n", Name: "session journal"}

// Journal is an open per-party session journal. All methods are safe
// for concurrent use (the transport's reader pumps append receives
// while the protocol goroutine appends sends).
type Journal struct {
	mu      sync.Mutex
	log     *Log
	tm      *journalMetrics
	scratch []byte // reused appendLocked encode buffer, guarded by mu

	fingerprint []byte
	seed        string
	epoch       int
	sent        map[int][]Record // per peer, in append order
	recv        map[int][]Record
}

// journalMetrics exports the durability cost of the write-ahead log:
// how often the party journals, how much it writes, and how long the
// flush-per-append and fsync paths take. Nil (telemetry disabled)
// costs a single nil check per append.
type journalMetrics struct {
	appends       *telemetry.Counter
	bytes         *telemetry.Counter
	appendSeconds *telemetry.Histogram
	fsyncSeconds  *telemetry.Histogram
}

// SetTelemetry connects the journal to a live metrics registry. Call
// before the session starts; a nil registry disables instrumentation.
func (j *Journal) SetTelemetry(reg *telemetry.Registry) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if reg == nil {
		j.tm = nil
		return
	}
	j.tm = &journalMetrics{
		appends: reg.Counter("journal_appends_total", "Records appended to the session journal."),
		bytes:   reg.Counter("journal_bytes_total", "Bytes appended to the session journal (frame headers included)."),
		appendSeconds: reg.Histogram("journal_append_seconds",
			"Latency of one journal append, including the flush to the OS.",
			telemetry.ExpBuckets(0.00001, 4, 10)), // 10µs .. ~2.6s
		fsyncSeconds: reg.Histogram("journal_fsync_seconds",
			"Latency of forcing the journal to stable storage.",
			telemetry.ExpBuckets(0.0001, 4, 10)), // 100µs .. ~26s
	}
}

// SessionPath names the journal file for one party of one session
// inside dir. Distinct sessions and parties never share a file.
func SessionPath(dir, sessionID string, party int) string {
	return filepath.Join(dir, fmt.Sprintf("%s-p%d.journal", sessionID, party))
}

// Open creates the journal at path, or reopens an existing one and
// replays its records into memory under the Log's tail rule: a torn
// final record (crash mid-append) is truncated away; corruption before
// the tail is an error.
func Open(path string) (*Journal, error) {
	j := &Journal{
		sent: make(map[int][]Record),
		recv: make(map[int][]Record),
	}
	log, err := OpenLog(path, journalFormat, func(body []byte) error {
		rec, err := decodeRecord(body)
		if err == nil {
			j.apply(rec)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	j.log = log
	return j, nil
}

// apply folds one record into the in-memory state.
func (j *Journal) apply(rec Record) {
	switch rec.Kind {
	case KindSession:
		j.fingerprint = rec.Data
	case KindSeed:
		j.seed = string(rec.Data)
	case KindEpoch:
		j.epoch = int(rec.Seq)
	case KindSent:
		j.sent[rec.Peer] = append(j.sent[rec.Peer], rec)
	case KindRecv:
		j.recv[rec.Peer] = append(j.recv[rec.Peer], rec)
	}
}

// appendLocked appends one record and folds it in; the caller holds j.mu.
func (j *Journal) appendLocked(rec Record) error {
	var start time.Time
	if j.tm != nil {
		start = time.Now()
	}
	// The scratch buffer is reused across appends (safe: appendLocked
	// holds j.mu), so steady-state appends allocate nothing.
	body := appendRecord(j.scratch[:0], rec)
	j.scratch = body[:0]
	if err := j.log.Append(body); err != nil {
		return err
	}
	if j.tm != nil {
		j.tm.appends.Inc()
		j.tm.bytes.Add(int64(frameHeader + len(body)))
		j.tm.appendSeconds.Observe(time.Since(start).Seconds())
	}
	j.apply(rec)
	return nil
}

// PinSession records the session fingerprint on first open and verifies
// it on every reopen, so a journal cannot be resumed with different
// flags, addresses or parameters than the session it belongs to.
func (j *Journal) PinSession(fingerprint []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.fingerprint == nil {
		return j.appendLocked(Record{Kind: KindSession, Data: append([]byte(nil), fingerprint...)})
	}
	if !bytes.Equal(j.fingerprint, fingerprint) {
		return fmt.Errorf("journal: %s belongs to a different session (was this party restarted with different flags?)", j.log.path)
	}
	return nil
}

// OpenSession opens (or reopens) party's journal for one session under
// dir and readies it for a run: it pins the identity sessionID|party=N,
// resolves the party's seed and begins a new epoch. The seed rule is
// the one every durable tier follows: an explicit seed must match the
// journal; otherwise the journaled seed wins (a restart re-derives its
// first life's randomness); otherwise a seed is drawn locally and
// journaled. It returns the journal and the resolved seed. reg, when
// non-nil, counts these records with the rest of the journal's.
func OpenSession(dir, sessionID string, party int, seed string, reg *telemetry.Registry) (*Journal, string, error) {
	j, err := Open(SessionPath(dir, sessionID, party))
	if err != nil {
		return nil, "", err
	}
	j.SetTelemetry(reg)
	err = j.PinSession([]byte(fmt.Sprintf("%s|party=%d", sessionID, party)))
	if err == nil && seed == "" && j.seed == "" {
		seed, err = fixedbig.DrawSeed("")
	}
	if err == nil {
		seed, err = j.SessionSeed(seed)
	}
	if err == nil {
		_, err = j.BeginEpoch()
	}
	if err != nil {
		j.Close()
		return nil, "", err
	}
	return j, seed, nil
}

// SessionSeed resolves the party's seed against the journal: the first
// run records the given (drawn or explicit) seed; a restart returns the
// journaled one, so recovery works even when the operator never chose a
// seed. An explicit seed that contradicts the journal is an error.
func (j *Journal) SessionSeed(seed string) (string, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.seed != "" {
		if seed != "" && seed != j.seed {
			return "", fmt.Errorf("journal: %s was started with a different seed", j.log.path)
		}
		return j.seed, nil
	}
	if seed == "" {
		return "", fmt.Errorf("journal: refusing to journal an empty seed")
	}
	return seed, j.appendLocked(Record{Kind: KindSeed, Data: []byte(seed)})
}

// BeginEpoch marks one process start and returns the new epoch number
// (1 on the first run). The reconnect handshake carries it so peers can
// tell a restarted party from a stale connection.
func (j *Journal) BeginEpoch() (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	next := j.epoch + 1
	if err := j.appendLocked(Record{Kind: KindEpoch, Seq: uint64(next)}); err != nil {
		return 0, err
	}
	return next, nil
}

// Epoch returns the current epoch (0 before any BeginEpoch).
func (j *Journal) Epoch() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.epoch
}

// LogSend implements transport.Journaler: it durably records one sent
// message (write-ahead: the transport journals before the first wire
// write, so a crash can never lose a message peers might be owed).
func (j *Journal) LogSend(peer, round, bytes int, seq uint64, payload any) error {
	return j.logMsg(Record{Kind: KindSent, Peer: peer, Round: round, Seq: seq, Bytes: bytes}, payload)
}

// LogRecv implements transport.Journaler: it durably records one
// received message before the transport acknowledges it, so every
// acknowledged message survives a crash of the receiver.
func (j *Journal) LogRecv(peer, round, bytes int, seq uint64, payload any) error {
	return j.logMsg(Record{Kind: KindRecv, Peer: peer, Round: round, Seq: seq, Bytes: bytes}, payload)
}

// logMsg appends rec carrying payload as one self-contained wirecodec
// frame — the same bytes the transport puts on the wire. A payload
// whose type has no codec is refused with the codec's encode error (the
// transports report that as the sender's own fault).
func (j *Journal) logMsg(rec Record, payload any) error {
	data, err := wirecodec.Marshal(payload)
	if err != nil {
		return fmt.Errorf("journal: encoding payload: %w", err)
	}
	rec.Data = data
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(rec)
}

// SentTo implements transport.Journaler: the messages this party
// journaled to peer, in send order, decoded and ready to retransmit.
func (j *Journal) SentTo(peer int) ([]transport.JournalMsg, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return decodeMsgs(j.sent[peer])
}

// RecvFrom implements transport.Journaler: the messages this party
// journaled from peer, in receive order, served to the restarted
// protocol before any live traffic.
func (j *Journal) RecvFrom(peer int) ([]transport.JournalMsg, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return decodeMsgs(j.recv[peer])
}

func decodeMsgs(recs []Record) ([]transport.JournalMsg, error) {
	out := make([]transport.JournalMsg, len(recs))
	for i, rec := range recs {
		payload, err := wirecodec.Unmarshal(rec.Data)
		if err != nil {
			return nil, fmt.Errorf("journal: decoding journaled message (round %d, seq %d): %w", rec.Round, rec.Seq, err)
		}
		out[i] = transport.JournalMsg{Round: rec.Round, Seq: rec.Seq, Bytes: rec.Bytes, Payload: payload}
	}
	return out, nil
}

// Sync forces all appended records to stable storage (fsync). Appends
// already survive process death; Sync extends that to machine crashes.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	var start time.Time
	if j.tm != nil {
		start = time.Now()
	}
	if err := j.log.Sync(); err != nil {
		return err
	}
	if j.tm != nil {
		j.tm.fsyncSeconds.Observe(time.Since(start).Seconds())
	}
	return nil
}

// Close flushes and closes the file. Idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}

// Scan reads every intact record from a journal file without opening it
// for writing — the tooling and test view. A torn tail is skipped, not
// an error (corruption before it is), so Scan is safe on a journal
// another process is appending to.
func Scan(path string) ([]Record, error) {
	var recs []Record
	err := ScanLog(path, journalFormat, func(body []byte) error {
		rec, err := decodeRecord(body)
		recs = append(recs, rec)
		return err
	})
	return recs, err
}
