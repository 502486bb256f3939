package service

// Client is the Go-side of the job API, used by the fabric coordinator and
// the service tests. Every error a server rejects a request with comes
// back as the same *APIError the server constructed — code, message, and
// Retry-After hint intact — so callers branch on Code, not on substrings.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"clocksched"
)

// Client talks to one sweepd daemon.
type Client struct {
	// Base is the daemon's base URL, e.g. "http://127.0.0.1:8900".
	Base string
	// Transport, when non-nil, is the RoundTripper under the client's
	// http.Client — the seam the fabric chaos suite uses to thread a
	// fault.NetInjector beneath every request. When nil, the client uses a
	// private transport with dial, TLS and response-header timeouts, never
	// http.DefaultClient, whose zero timeouts let one hung peer wedge a
	// caller forever.
	Transport http.RoundTripper
	// RequestTimeout bounds each non-streaming request (submit, status,
	// cancel, result fetch) with a context deadline. Zero selects 30s;
	// negative disables the per-request deadline. The SSE event stream is
	// exempt — it is long-lived by design and reconnects until its context
	// ends — but still inherits the transport's response-header timeout, so
	// a peer that accepts the connection and then hangs is surfaced.
	RequestTimeout time.Duration
	// Token, when non-empty, is sent as the bearer token on every request
	// — required when the daemon runs with a token file.
	Token string

	httpOnce sync.Once
	httpVal  *http.Client
}

// defaultRequestTimeout is the per-request deadline when RequestTimeout
// is zero: generous against a big result download, tiny against a wedged
// peer's infinity.
const defaultRequestTimeout = 30 * time.Second

// defaultTransport builds the client's private transport: bounded dial,
// TLS handshake, and response-header waits, so no single peer interaction
// can block longer than its budget. Deliberately not http.Client.Timeout —
// that would also kill long-lived SSE streams mid-read.
func defaultTransport() *http.Transport {
	return &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   10 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		TLSHandshakeTimeout:   10 * time.Second,
		ResponseHeaderTimeout: 30 * time.Second,
		ExpectContinueTimeout: time.Second,
		MaxIdleConnsPerHost:   4,
	}
}

func (c *Client) http() *http.Client {
	c.httpOnce.Do(func() {
		tr := c.Transport
		if tr == nil {
			tr = defaultTransport()
		}
		c.httpVal = &http.Client{Transport: tr}
	})
	return c.httpVal
}

// reqCtx applies the per-request deadline; see Client.RequestTimeout.
func (c *Client) reqCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	d := c.RequestTimeout
	if d == 0 {
		d = defaultRequestTimeout
	}
	if d < 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

func (c *Client) url(path string) string {
	return strings.TrimSuffix(c.Base, "/") + path
}

// newRequest builds a request with the client's auth header attached.
func (c *Client) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.url(path), body)
	if err != nil {
		return nil, err
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	return req, nil
}

// decodeError reconstructs the server's structured error from a non-2xx
// response.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var env struct {
		Error *APIError `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err == nil && env.Error != nil {
		env.Error.Status = resp.StatusCode
		if env.Error.RetryAfter == 0 {
			if h := resp.Header.Get("Retry-After"); h != "" {
				if d, err := time.ParseDuration(h + "s"); err == nil {
					env.Error.RetryAfter = d
				}
			}
		}
		return env.Error
	}
	return &APIError{Status: resp.StatusCode, Code: CodeInternal,
		Message: fmt.Sprintf("unexpected response: %s", bytes.TrimSpace(body))}
}

// do issues one request under the per-request deadline and decodes a JSON
// response into out (unless nil).
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	ctx, cancel := c.reqCtx(ctx)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := c.newRequest(ctx, method, path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit posts the spec at normal priority and returns the accepted job's
// status. Rejections (429 queue full or quota, 409 version mismatch, 400
// invalid, 401 unauthorized, 503 draining) come back as *APIError, a 429
// with the server's Retry-After hint in RetryAfter.
func (c *Client) Submit(ctx context.Context, spec clocksched.SweepSpec) (JobStatus, error) {
	return c.SubmitWith(ctx, spec, SubmitOptions{})
}

// SubmitWith is Submit with an explicit priority class. The client's
// identity is not a request field — the server derives it from the bearer
// token — so SubmitOptions.Client is ignored here.
func (c *Client) SubmitWith(ctx context.Context, spec clocksched.SweepSpec, opts SubmitOptions) (JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return JobStatus{}, err
	}
	path := "/v1/jobs"
	if opts.Priority != "" {
		path += "?priority=" + url.QueryEscape(string(opts.Priority))
	}
	var st JobStatus
	err = c.do(ctx, http.MethodPost, path, body, &st)
	return st, err
}

// Status fetches one job's status.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Jobs lists every job on the daemon in submission order.
func (c *Client) Jobs(ctx context.Context) ([]JobStatus, error) {
	var out struct {
		Jobs []JobStatus `json:"jobs"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out.Jobs, err
}

// Cancel asks the daemon to cancel the job at its next quantum boundary.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// ResultBytes fetches a finished job's canonical result envelope, under
// the per-request deadline.
func (c *Client) ResultBytes(ctx context.Context, id string) ([]byte, error) {
	ctx, cancel := c.reqCtx(ctx)
	defer cancel()
	req, err := c.newRequest(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, decodeError(resp)
	}
	// Size the read from Content-Length so it does not grow by doubling;
	// the peer sets that header, so the pre-allocation is capped, and the
	// body is read to EOF whatever it claims.
	var b bytes.Buffer
	if n := resp.ContentLength; n > 0 {
		b.Grow(int(min(n, maxResultPrealloc)) + bytes.MinRead)
	}
	_, err = b.ReadFrom(resp.Body)
	return b.Bytes(), err
}

// maxResultPrealloc caps how much of a result's announced Content-Length
// ResultBytes allocates before reading; a larger body grows as it arrives.
const maxResultPrealloc = 16 << 20

// Result fetches and decodes a finished job's SweepResult.
func (c *Client) Result(ctx context.Context, id string) (*clocksched.SweepResult, error) {
	b, err := c.ResultBytes(ctx, id)
	if err != nil {
		return nil, err
	}
	return clocksched.DecodeSweepResult(b)
}

// eventsRetry paces Events' reconnects: the n-th consecutive failed
// attempt waits n×eventsRetry, at most eventsRetryMax.
const (
	eventsRetry    = 250 * time.Millisecond
	eventsRetryMax = time.Second
)

// Events streams the job's SSE feed, invoking fn per event. It is the one
// loop that follows a job: a dropped or refused connection (daemon
// restart, proxy timeout, a 5xx or 429, a stream closed before its
// terminal event) is reconnected after a capped backoff with the SSE
// Last-Event-ID header, so the server skips the snapshot the client
// already has. It returns nil once the job reaches a terminal state, and
// an error when fn fails, when ctx ends (ctx.Err()), when the server
// refuses the stream with any other 4xx, or when the stream is malformed
// (a bad payload or an over-long line).
func (c *Client) Events(ctx context.Context, id string, fn func(Event) error) error {
	var lastID string
	fails := 0
	for {
		sawEvent, retryable, err := c.eventsOnce(ctx, id, fn, &lastID)
		if err == nil || !retryable {
			return err
		}
		if sawEvent {
			fails = 0 // progress since the last failure: start the backoff over
		}
		fails++
		select {
		case <-time.After(min(time.Duration(fails)*eventsRetry, eventsRetryMax)):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// eventsOnce runs one SSE connection, tracking the last SSE id in *lastID
// for the next attempt's Last-Event-ID header. The id is opaque to the
// client — the server qualifies sequence numbers with its boot epoch, and
// deciding whether a held id is current or stale is the server's job — so
// it is stored and echoed verbatim. A nil error means the stream ended on
// a terminal event. retryable marks what a reconnect may cure: transport
// failures, cut or prematurely closed streams, and 5xx or 429 answers.
// Other 4xx rejections, malformed streams, and fn's own errors are not
// retryable — they are the caller's business.
func (c *Client) eventsOnce(ctx context.Context, id string, fn func(Event) error, lastID *string) (sawEvent, retryable bool, err error) {
	req, err := c.newRequest(ctx, http.MethodGet, "/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return false, false, err
	}
	if *lastID != "" {
		req.Header.Set("Last-Event-ID", *lastID)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return false, true, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		err := decodeError(resp)
		return false, !rejected(err), err
	}

	// Events are short JSON lines: start from a 512-byte buffer and let a
	// rare long line grow it to 1 MiB.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 512), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if idStr, ok := bytes.CutPrefix(line, []byte("id: ")); ok {
			*lastID = string(bytes.TrimSpace(idStr))
			continue
		}
		data, ok := bytes.CutPrefix(line, []byte("data: "))
		if !ok {
			continue
		}
		var ev Event
		if err := json.Unmarshal(data, &ev); err != nil {
			return sawEvent, false, fmt.Errorf("service: bad event payload: %w", err)
		}
		sawEvent = true
		if fn != nil {
			if err := fn(ev); err != nil {
				return sawEvent, false, err
			}
		}
		if ev.Type == "state" && ev.State.terminal() {
			return sawEvent, false, nil
		}
	}
	if err := sc.Err(); err != nil {
		return sawEvent, err != bufio.ErrTooLong, err
	}
	return sawEvent, true, io.EOF // stream ended without a terminal event
}

// Wait blocks until the job is terminal, following the event stream
// through Events, and returns the final status its terminal event
// carries, with no status request. Only when that event has no final
// status (an older daemon) does one status probe decide. Errors are
// Events': ctx's end, a 4xx rejection other than 429 — an unknown job, a
// refused token — or a malformed stream. A non-nil onProgress observes
// done/total counts as they arrive.
func (c *Client) Wait(ctx context.Context, id string, onProgress func(done, total int)) (JobStatus, error) {
	var final *JobStatus
	err := c.Events(ctx, id, func(ev Event) error {
		if onProgress != nil && ev.Total > 0 {
			onProgress(ev.Done, ev.Total)
		}
		final = ev.Final
		return nil
	})
	switch {
	case err != nil:
		return JobStatus{}, err
	case final != nil:
		return *final, nil
	}
	return c.Status(ctx, id)
}

// rejected reports whether err is a structured rejection that retrying
// cannot change: any 4xx but 429, which asks the caller to come back.
func rejected(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.Status/100 == 4 && apiErr.Status != http.StatusTooManyRequests
}
