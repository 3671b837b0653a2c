package service

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"groupranking/internal/api"
	"groupranking/internal/journal"
	"groupranking/internal/workload"
)

// The durable half of the daemon: with Config.Recovery set, every
// session journals its protocol transcript (internal/journal) and its
// lifecycle facts (store.go) under Recovery.Dir, the session mux runs
// in its reconnecting epoch'd mode, and a restarted daemon re-adopts
// everything the previous life left behind — terminal results keep
// answering GET /result, interrupted sessions re-execute from their
// journals and resume byte-identically on the wire.

// ErrBadJournalDir is the typed startup failure for an unusable
// journal directory: missing, not a directory, unwritable, or already
// locked by another live daemon for the same mesh slot. cmd/rankd
// maps it to exit code 2 — an operator mistake, not a runtime fault.
var ErrBadJournalDir = errors.New("unusable journal directory")

// validateJournalDir creates the directory if needed and proves it is
// actually writable before the daemon commits to depending on it.
func validateJournalDir(dir string) error {
	if dir == "" {
		return fmt.Errorf("service: %w: Recovery.Dir is empty", ErrBadJournalDir)
	}
	if fi, err := os.Stat(dir); err == nil && !fi.IsDir() {
		return fmt.Errorf("service: %w: %s exists and is not a directory", ErrBadJournalDir, dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("service: %w: creating %s: %v", ErrBadJournalDir, dir, err)
	}
	f, err := os.CreateTemp(dir, ".rankd-probe-*")
	if err != nil {
		return fmt.Errorf("service: %w: %s is not writable: %v", ErrBadJournalDir, dir, err)
	}
	f.Close()
	os.Remove(f.Name())
	return nil
}

// lockJournalDir takes this mesh slot's advisory lock inside dir, so
// two daemons cannot corrupt one slot's table by sharing it. The lock
// dies with the process (flock), so a SIGKILL'd daemon never leaves a
// stale lock behind.
func lockJournalDir(dir string, me int) (*os.File, error) {
	path := filepath.Join(dir, fmt.Sprintf("rankd-p%d.lock", me))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: %w: opening lock %s: %v", ErrBadJournalDir, path, err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("service: %w: %s is already locked by a live daemon for slot %d", ErrBadJournalDir, dir, me)
	}
	return f, nil
}

// sessionJournalPath names one session's transport journal for this
// daemon.
func (d *Daemon) sessionJournalPath(id string) string {
	return journal.SessionPath(d.cfg.Recovery.Dir, id, d.cfg.Me)
}

// readopt rebuilds the daemon's session table from the store after a
// restart: terminal sessions go back to serving their results (and
// their journals back to answering peers' resume requests), non-
// terminal ones are re-registered and — once their role input is on
// hand — re-spawned to resume from their journals. Runs before the
// HTTP handler or control loop see traffic, so it needs no admission
// checks.
func (d *Daemon) readopt(stored map[string]*storedSession) {
	for id, st := range stored {
		params, q, timeout, err := d.resolveSpec(st.Spec)
		if err != nil {
			// The spec was valid when admitted; a failure here means the
			// binary or mesh shape changed under the journal dir. Drop the
			// session rather than refuse to boot.
			continue
		}
		s := &session{
			id:      id,
			spec:    st.Spec,
			params:  params,
			q:       q,
			timeout: timeout,
			created: st.Created,
			state:   api.StatePending,
		}
		if st.HasProfile {
			s.profile = workload.Profile{Values: st.Values}
		}
		if key := st.Spec.IdempotencyKey; key != "" {
			d.keys[key] = id
		}
		if st.Result != nil {
			// Terminal: the result answers polls until the TTL (restarted
			// fresh — a crash must not shorten a client's polling window),
			// and the journal keeps serving retransmissions to peers whose
			// halves are still catching up.
			s.state = st.Result.State
			s.result = st.Result
			s.doneAt = time.Now()
			d.sessions[id] = s
			if j, err := journal.Open(d.sessionJournalPath(id)); err == nil {
				j.Close() // the in-memory transcript is all resume serving needs
				d.mux.ServeResumable(id, j)
			}
			continue
		}
		d.sessions[id] = s
		d.met.liveN++
		d.met.live.Set(float64(d.met.liveN))
		if d.cfg.Me == 0 || st.HasProfile {
			s.started = true
			s.state = api.StateEstablishing
			d.spawn(s)
		}
	}
}
