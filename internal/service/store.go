package service

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"groupranking/internal/api"
	"groupranking/internal/journal"
)

// The durable session table: one append-only log per daemon under the
// journal directory, recording every fact the daemon must not forget
// across a crash — which sessions it admitted (with their resolved
// spec, so a restart re-derives the same parameters), which profiles
// its clients already submitted, which idempotency keys are bound, and
// every terminal outcome (so GET /result keeps answering after a
// restart). The per-session protocol transcripts live in the
// per-session transport journals; this table is only the daemon's index
// over them.
//
// The table is a journal.Log, so framing and the torn-tail rule are the
// transport journal's own; each record body is one storeRec in JSON.
// The table is compacted on every open — terminal sessions collapse to
// open[+submit]+done, purged ones vanish — and the boot record's epoch
// counts this daemon's process lives, which is exactly the epoch the
// session mux carries in its reconnect handshake.

// tableFormat's magic sets the framed table apart from the JSONL table
// of earlier builds, which it refuses rather than misreads.
var tableFormat = journal.Format{Magic: "GRTB1\n", Name: "session table"}

// storeRec is one record of the session table.
type storeRec struct {
	// T discriminates: "boot", "open", "submit", "done", "purge".
	T string `json:"t"`
	// Epoch is this process life's number (boot records only).
	Epoch int `json:"epoch,omitempty"`
	// ID names the session (all but boot).
	ID string `json:"id,omitempty"`
	// Spec is the admitted spec, criterion included at the initiator
	// daemon — the table is that daemon's own private disk, and the
	// criterion is required to resume an interrupted session. Scrubbed
	// specs arrive already criterion-free at participant daemons.
	Spec *api.SessionSpec `json:"spec,omitempty"`
	// CreatedMS is the admission time (open records), Unix milliseconds.
	CreatedMS int64 `json:"created_ms,omitempty"`
	// Values is the submitted profile (submit records).
	Values []int64 `json:"values,omitempty"`
	// Result is the terminal outcome (done records; aborts included).
	Result *api.ResultResponse `json:"result,omitempty"`
}

// storedSession is one session folded out of the table.
type storedSession struct {
	Spec       api.SessionSpec
	Created    time.Time
	HasProfile bool
	Values     []int64
	Result     *api.ResultResponse
}

// store is the open session table. Appends are fsync'd: an outcome a
// client may already have polled can never un-happen across a restart.
type store struct {
	mu  sync.Mutex
	log *journal.Log
}

// storePath names the daemon's session table inside the journal dir.
func storePath(dir string, me int) string {
	return filepath.Join(dir, fmt.Sprintf("sessions-p%d.table", me))
}

// openStore loads (or creates) the table at path, bumps the boot
// epoch, compacts the file, and returns the surviving sessions. The
// returned epoch counts this process life (1 on the first boot). A
// table this build cannot replay — another build's, or a corrupt one —
// is ErrBadJournalDir: the daemon never boots on an empty table in its
// place.
func openStore(path string) (*store, map[string]*storedSession, int, error) {
	sessions := make(map[string]*storedSession)
	epoch := 0
	log, err := journal.OpenLog(path, tableFormat, func(body []byte) error {
		var rec storeRec
		if err := json.Unmarshal(body, &rec); err != nil {
			return err
		}
		return foldRec(sessions, &epoch, rec)
	})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("service: %w: %v", ErrBadJournalDir, err)
	}
	epoch++
	if err := log.Rewrite(compaction(epoch, sessions)); err != nil {
		log.Close()
		return nil, nil, 0, fmt.Errorf("service: compacting session table: %w", err)
	}
	return &store{log: log}, sessions, epoch, nil
}

// foldRec applies one table record to the per-session state.
func foldRec(sessions map[string]*storedSession, epoch *int, rec storeRec) error {
	switch rec.T {
	case "boot":
		*epoch = max(*epoch, rec.Epoch)
	case "open":
		if rec.Spec == nil {
			return fmt.Errorf("open record for %s has no spec", rec.ID)
		}
		sessions[rec.ID] = &storedSession{
			Spec:    *rec.Spec,
			Created: time.UnixMilli(rec.CreatedMS),
		}
	case "submit":
		if s := sessions[rec.ID]; s != nil {
			s.HasProfile = true
			s.Values = rec.Values
		}
	case "done":
		if s := sessions[rec.ID]; s != nil {
			s.Result = rec.Result
		}
	case "purge":
		delete(sessions, rec.ID)
	default:
		return fmt.Errorf("unknown record kind %q", rec.T)
	}
	return nil
}

// compaction is the minimal record set that rebuilds sessions: boot,
// then per surviving session, in creation order, open[+submit][+done].
func compaction(epoch int, sessions map[string]*storedSession) [][]byte {
	ids := make([]string, 0, len(sessions))
	for id := range sessions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := sessions[ids[i]], sessions[ids[j]]
		if !a.Created.Equal(b.Created) {
			return a.Created.Before(b.Created)
		}
		return ids[i] < ids[j]
	})
	bodies := [][]byte{storeRec{T: "boot", Epoch: epoch}.body()}
	for _, id := range ids {
		s := sessions[id]
		spec := s.Spec
		bodies = append(bodies, storeRec{T: "open", ID: id, Spec: &spec, CreatedMS: s.Created.UnixMilli()}.body())
		if s.HasProfile {
			bodies = append(bodies, storeRec{T: "submit", ID: id, Values: s.Values}.body())
		}
		if s.Result != nil {
			bodies = append(bodies, storeRec{T: "done", ID: id, Result: s.Result}.body())
		}
	}
	return bodies
}

// body encodes the record. storeRec and the api types it carries hold
// only strings, integers, bools and slices and structs of them, which
// json.Marshal always encodes; were it ever to fail, the nil body is
// refused by the log as an empty record, so the failure still surfaces.
func (rec storeRec) body() []byte {
	b, _ := json.Marshal(rec)
	return b
}

// append writes and fsyncs one record.
func (st *store) append(rec storeRec) error {
	body := rec.body()
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.log.AppendSync(body)
}

// logOpen durably admits a session.
func (st *store) logOpen(id string, spec api.SessionSpec, created time.Time) error {
	return st.append(storeRec{T: "open", ID: id, Spec: &spec, CreatedMS: created.UnixMilli()})
}

// logSubmit durably records this daemon's participant profile.
func (st *store) logSubmit(id string, values []int64) error {
	return st.append(storeRec{T: "submit", ID: id, Values: values})
}

// logDone durably records a terminal outcome (done or aborted).
func (st *store) logDone(id string, res *api.ResultResponse) error {
	return st.append(storeRec{T: "done", ID: id, Result: res})
}

// logPurge durably forgets a session the janitor retired.
func (st *store) logPurge(id string) error {
	return st.append(storeRec{T: "purge", ID: id})
}

// Close releases the file. Idempotent.
func (st *store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.log.Close()
}
