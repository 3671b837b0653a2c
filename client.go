package groupranking

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"groupranking/internal/api"
)

// The typed client for rankd, the ranking-as-a-service daemon
// (cmd/rankd, internal/service). The deployment model: one daemon per
// mesh slot — daemon 0 plays the initiator, daemon j participant j —
// each hosting many concurrent sessions over one multiplexed
// connection per peer pair. A client creates a session at the
// initiator daemon's endpoint (carrying the private criterion, which
// never leaves that daemon), each participant posts its private
// profile to its own daemon, and everyone polls the result.

// SessionSpec describes a service session: the questionnaire (Attribute),
// the initiator's Criterion, and the protocol knobs. See internal/api for
// field semantics; zero-value knobs take the framework defaults.
type SessionSpec = api.SessionSpec

// Deprecated: the benchmark module in bench/ still spells the
// questionnaire types by these names; use Attribute, Criterion, EqualTo
// and GreaterThan.
type (
	ClientAttribute = Attribute
	ClientCriterion = Criterion
)

// Deprecated: use EqualTo and GreaterThan.
const (
	AttrEqualTo     = EqualTo
	AttrGreaterThan = GreaterThan
)

// SessionInfo is a session's identity and lifecycle state.
type SessionInfo = api.SessionInfo

// SessionResult is one daemon's view of a session outcome: the
// initiator daemon reports Submissions/Suspicious, a participant
// daemon its own Rank. State is one of the api.State* values; Error
// carries the abort cause when State is "aborted".
type SessionResult = api.ResultResponse

// Session states a SessionResult.State can report.
const (
	SessionPending      = api.StatePending
	SessionEstablishing = api.StateEstablishing
	SessionRunning      = api.StateRunning
	SessionDone         = api.StateDone
	SessionAborted      = api.StateAborted
)

// APIError is the typed error every non-2xx daemon response decodes
// to.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the stable machine-readable cause (api.Code* values,
	// e.g. "admission_full").
	Code string
	// Message is the human-readable cause.
	Message string
	// RetryAfter is the daemon's Retry-After hint, 0 when the response
	// carried none. Overload (admission_full) and graceful-shutdown
	// (draining) rejections always carry one.
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("groupranking: daemon answered %d %s: %s", e.Status, e.Code, e.Message)
}

// IsAdmissionFull reports whether err is the daemon's admission-cap
// rejection.
func IsAdmissionFull(err error) bool {
	e, ok := err.(*APIError)
	return ok && e.Code == "admission_full"
}

// IsDraining reports whether err is a daemon's graceful-shutdown
// rejection: the daemon stopped admitting work and a restarted daemon
// (or another replica) will take the retry.
func IsDraining(err error) bool {
	e, ok := err.(*APIError)
	return ok && e.Code == "draining"
}

// IsRetryable reports whether err is a daemon rejection that a retry
// with backoff can outwait: overload shedding (admission_full) and
// graceful drain (draining). Both are rejected BEFORE any state
// changes, so retrying them is always safe.
func IsRetryable(err error) bool {
	return IsAdmissionFull(err) || IsDraining(err)
}

// RetryPolicy tunes a Client's automatic retry of retryable daemon
// rejections (see IsRetryable): capped exponential backoff with
// jitter, never sleeping less than the daemon's own Retry-After hint.
// The zero value of each knob takes the default.
type RetryPolicy struct {
	// MaxAttempts bounds the total tries, first included (default 5).
	MaxAttempts int
	// BaseDelay is the first backoff step (default 50ms); attempt n
	// waits about BaseDelay·2ⁿ, half of it jittered.
	BaseDelay time.Duration
	// MaxDelay caps a single wait (default 2s).
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 5
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// delay computes the wait before retry number attempt (0-based): the
// capped exponential step, at least the daemon's hint, with the upper
// half jittered so a rejected fleet does not reconverge in lockstep.
func (p RetryPolicy) delay(attempt int, hint time.Duration) time.Duration {
	d := p.BaseDelay << uint(attempt)
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	if hint > d {
		d = hint
	}
	if d > 1 {
		d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	}
	return d
}

// Client talks to one rankd daemon.
type Client struct {
	base  string
	hc    *http.Client
	retry *RetryPolicy
}

// WithRetry returns a copy of the client that transparently retries
// retryable daemon rejections (overload shedding, graceful drain)
// under the given policy. Context cancellation interrupts a backoff
// sleep immediately.
func (c *Client) WithRetry(p RetryPolicy) *Client {
	p = p.withDefaults()
	cc := *c
	cc.retry = &p
	return &cc
}

// NewClient builds a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:9441"). hc nil uses http.DefaultClient.
func NewClient(baseURL string, hc *http.Client) *Client {
	for len(baseURL) > 0 && baseURL[len(baseURL)-1] == '/' {
		baseURL = baseURL[:len(baseURL)-1]
	}
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: baseURL, hc: hc}
}

// do runs one JSON round trip, retrying retryable rejections when the
// client has a RetryPolicy; out may be nil.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	if c.retry == nil {
		return c.doOnce(ctx, method, path, in, out)
	}
	p := *c.retry
	for attempt := 0; ; attempt++ {
		err := c.doOnce(ctx, method, path, in, out)
		if err == nil || !IsRetryable(err) || attempt+1 >= p.MaxAttempts {
			return err
		}
		hint := time.Duration(0)
		if e, ok := err.(*APIError); ok {
			hint = e.RetryAfter
		}
		t := time.NewTimer(p.delay(attempt, hint))
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}

// doOnce runs exactly one JSON round trip.
func (c *Client) doOnce(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("groupranking: encoding %s %s: %w", method, path, err)
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		apiErr := &APIError{Status: resp.StatusCode, Code: "unknown"}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
				apiErr.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		var e api.Error
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e) == nil && e.Code != "" {
			apiErr.Code, apiErr.Message = e.Code, e.Message
		}
		return apiErr
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// CreateSession creates a session at the initiator daemon and returns
// its ID. The spec's Criterion stays at that daemon; participants are
// told everything else (including the seed) over the daemons' control
// plane.
func (c *Client) CreateSession(ctx context.Context, spec SessionSpec) (string, error) {
	var info api.SessionInfo
	if err := c.do(ctx, http.MethodPost, api.PathSessions, spec, &info); err != nil {
		return "", err
	}
	return info.ID, nil
}

// Submit posts one participant's private profile to its own daemon,
// starting that daemon's half of the session.
func (c *Client) Submit(ctx context.Context, id string, values []int64) error {
	return c.do(ctx, http.MethodPost, api.SubmitPath(id), Profile{Values: values}, nil)
}

// Result polls a session's outcome once. The returned State says how
// far the session is; the outcome fields are filled when it is
// terminal (SessionDone or SessionAborted).
func (c *Client) Result(ctx context.Context, id string) (*SessionResult, error) {
	var res SessionResult
	if err := c.do(ctx, http.MethodGet, api.ResultPath(id), nil, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Info fetches a session's lifecycle snapshot.
func (c *Client) Info(ctx context.Context, id string) (*SessionInfo, error) {
	var info SessionInfo
	if err := c.do(ctx, http.MethodGet, api.SessionPath(id), nil, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// Sessions lists the daemon's hosted sessions, oldest first.
func (c *Client) Sessions(ctx context.Context) ([]SessionInfo, error) {
	var infos []SessionInfo
	if err := c.do(ctx, http.MethodGet, api.PathSessions, nil, &infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// WaitResult polls every interval (default 25ms) until the session is
// terminal or ctx expires. An aborted session is returned with a nil
// error — the abort cause is in SessionResult.Error; the caller
// decides whether that is a failure.
func (c *Client) WaitResult(ctx context.Context, id string, interval time.Duration) (*SessionResult, error) {
	if interval <= 0 {
		interval = 25 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		res, err := c.Result(ctx, id)
		if err != nil {
			return nil, err
		}
		if api.Terminal(res.State) {
			return res, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.C:
		}
	}
}
