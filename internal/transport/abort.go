package transport

import (
	"errors"
	"fmt"

	"groupranking/internal/wirecodec"
)

// Sentinel causes carried inside an AbortError. Protocol code matches
// them with errors.Is to distinguish why a run aborted.
var (
	// ErrTimeout: a receive waited longer than the configured timeout.
	ErrTimeout = errors.New("transport: receive timed out")
	// ErrPeerDown: the awaited peer is known to have crashed or its
	// connection was lost.
	ErrPeerDown = errors.New("transport: peer down")
	// ErrRoundMismatch: a message arrived carrying a different round tag
	// than the receiver expected — the stream was shifted by a dropped,
	// duplicated or reordered message.
	ErrRoundMismatch = errors.New("transport: unexpected round tag")
	// ErrCrashed: a fault-injection schedule crashed this party.
	ErrCrashed = errors.New("transport: party crashed by fault schedule")
	// ErrClosed: the endpoint was shut down locally.
	ErrClosed = errors.New("transport: endpoint closed")
)

// encodeFault picks the sender's own faults out of a send path's
// errors. A wirecodec encode failure (unregistered type, nil scalar,
// oversized payload) happens before a byte reaches the link, so it is
// returned as a plain error: never an AbortError naming the peer the
// frame was meant for, never ErrPeerDown, and the link stays up. Any
// other error yields nil and keeps its usual attribution.
func encodeFault(to, round int, err error) error {
	if !isEncodeError(err) {
		return nil
	}
	return fmt.Errorf("transport: message for party %d (round %d) has no wire form: %w", to, round, err)
}

func isEncodeError(err error) bool {
	var ee *wirecodec.EncodeError
	return errors.As(err, &ee)
}

// AbortError is the typed failure every protocol layer surfaces when a
// run cannot complete: a peer crashed, a channel timed out, the stream
// was corrupted, or the run's context was cancelled. It names the party
// whose failure was observed, the protocol phase and round the observer
// was in, and the underlying cause. The safety invariant of the runtime
// is that every faulted run ends in either a correct result or an
// AbortError — never a silently wrong result, never a hang.
type AbortError struct {
	// Party is the index of the party whose failure triggered the abort
	// — usually the peer the observer was waiting on — or -1 if unknown.
	Party int
	// Phase is the protocol phase the observer was executing (filled in
	// by the protocol layer; empty when raised below that layer).
	Phase string
	// Round is the round tag the observer was waiting on, or -1.
	Round int
	// Cause is the underlying error (often one of the sentinels above,
	// or context.Canceled / context.DeadlineExceeded).
	Cause error
	// Cert carries machine-verifiable cheating evidence when the abort
	// identifies a misbehaving party (see BlameCert); nil for benign
	// failures such as timeouts, crashes and cancellations.
	Cert *BlameCert
}

// Error implements error.
func (e *AbortError) Error() string {
	party := "unknown party"
	if e.Party >= 0 {
		party = fmt.Sprintf("party %d", e.Party)
	}
	phase := ""
	if e.Phase != "" {
		phase = fmt.Sprintf(" in phase %q", e.Phase)
	}
	round := ""
	if e.Round >= 0 {
		round = fmt.Sprintf(" (round %d)", e.Round)
	}
	return fmt.Sprintf("transport: abort waiting on %s%s%s: %v", party, phase, round, e.Cause)
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *AbortError) Unwrap() error { return e.Cause }

// Abort builds an AbortError.
func Abort(party, round int, phase string, cause error) *AbortError {
	return &AbortError{Party: party, Phase: phase, Round: round, Cause: cause}
}

// WithCert attaches cheating evidence to the abort and returns it.
func (e *AbortError) WithCert(c *BlameCert) *AbortError {
	e.Cert = c
	return e
}

// AnnotatePhase stamps the protocol phase onto err's AbortError if it
// has none yet, and returns err unchanged otherwise. Protocol layers
// call it at every receive site so aborts name the phase they happened
// in without the transport needing protocol knowledge.
func AnnotatePhase(err error, phase string) error {
	var ae *AbortError
	if errors.As(err, &ae) && ae.Phase == "" {
		ae.Phase = phase
		if ae.Cert != nil && ae.Cert.Phase == "" {
			ae.Cert.Phase = phase
		}
	}
	return err
}

// EnsureAbort normalises err into the typed abort form: if err already
// is (or wraps) an AbortError it is returned unchanged; otherwise it is
// wrapped into one attributed to the given party and phase. Runner
// layers use it so every failed run yields a typed *AbortError.
func EnsureAbort(err error, party int, phase string) error {
	if err == nil {
		return nil
	}
	var ae *AbortError
	if errors.As(err, &ae) {
		return err
	}
	return &AbortError{Party: party, Phase: phase, Round: -1, Cause: err}
}

// isAbort reports whether err is or wraps an AbortError, returning it.
func isAbort(err error) (*AbortError, bool) {
	var ae *AbortError
	if errors.As(err, &ae) {
		return ae, true
	}
	return nil, false
}
