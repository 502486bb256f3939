package service

// The HTTP surface of the sweep service. Every error response is a
// structured JSON object with a machine-readable code, and every endpoint
// is safe to hit concurrently with job execution:
//
//	POST   /v1/jobs             submit a SweepSpec, 202 + status
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        one job's status
//	GET    /v1/jobs/{id}/result canonical result bytes (done jobs only)
//	GET    /v1/jobs/{id}/events live progress via Server-Sent Events
//	DELETE /v1/jobs/{id}        cancel at the next quantum boundary
//	GET    /metrics             service + per-job Prometheus metrics
//	GET    /healthz             liveness
//	GET    /readyz              readiness: drain state + queue/runner occupancy
//
// Backpressure is visible at the protocol level: a full admission queue
// answers 429 with a Retry-After header, a mismatched sim.Version answers
// 409 with code "version_mismatch", and a draining server answers 503.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"clocksched"
	"clocksched/internal/telemetry"
)

// Error codes carried in structured error responses.
const (
	CodeVersionMismatch = "version_mismatch"
	CodeInvalidSpec     = "invalid_spec"
	CodeQueueFull       = "queue_full"
	CodeDraining        = "draining"
	CodeNotFound        = "not_found"
	CodeNotFinished     = "not_finished"
	CodeBadRequest      = "bad_request"
	CodeInternal        = "internal"
	CodeUnauthorized    = "unauthorized"
	CodeQuotaExceeded   = "quota_exceeded"
)

// APIError is the service's structured error: an HTTP status, a stable
// machine-readable code, and a human-readable message. The server returns
// it from Submit/Status/…; the HTTP layer serializes it; the client
// deserializes it back, so in-process and over-the-wire callers see the
// same type.
type APIError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfter, when positive, tells the client how long to back off
	// before resubmitting (429 responses; sent as the Retry-After header).
	RetryAfter time.Duration `json:"retry_after_seconds,omitempty"`
	// Usage rides on quota rejections (code "quota_exceeded"): the owning
	// client's live jobs and cells against its limits, so the rejection
	// says exactly what to cancel or wait out.
	Usage *QuotaUsage `json:"usage,omitempty"`
}

func (e *APIError) Error() string {
	return fmt.Sprintf("service: %s (%d %s)", e.Message, e.Status, e.Code)
}

// JobStatus is the wire form of one job's state.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Done and Total are the job's cell progress; a resumed job's Done
	// starts at the journal-replayed count.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Replayed counts the cells the job's last run recovered from its
	// journal instead of re-simulating.
	Replayed int `json:"replayed,omitempty"`
	// Error is the terminal failure text of a failed job.
	Error string `json:"error,omitempty"`
	// Priority is the job's scheduling class.
	Priority Priority `json:"priority,omitempty"`
	// Client is the authenticated submitter, empty when anonymous.
	Client string `json:"client,omitempty"`
	// Preemptions counts how many times a higher-priority job pushed this
	// one off its runner.
	Preemptions int `json:"preemptions,omitempty"`
}

// maxSpecBytes bounds a submitted job spec. A grid spec is axes plus
// flags; even an explicit 10k-cell spec fits comfortably — anything larger
// is hostile or broken.
const maxSpecBytes = 8 << 20

// clientKey carries the authenticated client's name through the request
// context.
type clientKey struct{}

// authenticate resolves the request's bearer token against the configured
// table. With no table every request is anonymous; with one, every
// endpoint but /healthz requires a known token.
func (s *Server) authenticate(r *http.Request) (string, error) {
	if s.cfg.Auth == nil {
		return "", nil
	}
	h := r.Header.Get("Authorization")
	token, ok := strings.CutPrefix(h, "Bearer ")
	if !ok || token == "" {
		s.reg.Counter(mRejectedAuth).Inc()
		return "", &APIError{Status: 401, Code: CodeUnauthorized,
			Message: "missing bearer token"}
	}
	cl, ok := s.cfg.Auth.Lookup(strings.TrimSpace(token))
	if !ok {
		s.reg.Counter(mRejectedAuth).Inc()
		return "", &APIError{Status: 401, Code: CodeUnauthorized,
			Message: "unknown bearer token"}
	}
	return cl.Name, nil
}

// ServeHTTP implements http.Handler over the method+path patterns of the
// standard mux, gated by bearer-token authentication when a token table is
// configured (liveness stays open — a monitor should not need a secret to
// ask if the daemon is up).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Auth != nil && r.URL.Path != "/healthz" && r.URL.Path != "/readyz" {
		client, err := s.authenticate(r)
		if err != nil {
			writeError(w, err)
			return
		}
		r = r.WithContext(context.WithValue(r.Context(), clientKey{}, client))
	}
	s.mux().ServeHTTP(w, r)
}

// mux builds the route table (once; ServeMux registration is cheap enough
// to rebuild, but the handler set is static).
func (s *Server) mux() *http.ServeMux {
	s.muxOnce.Do(func() {
		m := http.NewServeMux()
		m.HandleFunc("POST /v1/jobs", s.handleSubmit)
		m.HandleFunc("GET /v1/jobs", s.handleList)
		m.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
		m.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
		m.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
		m.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
		m.HandleFunc("GET /metrics", s.handleMetrics)
		m.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"ok":true,"sim_version":%q}`+"\n", clocksched.SimVersion())
		})
		m.HandleFunc("GET /readyz", s.handleReady)
		s.muxVal = m
	})
	return s.muxVal
}

// handleReady answers readiness probes: 200 with the admission snapshot
// while the daemon accepts work, 503 with the same body once it is
// draining, closed, or backed up — so a probe can branch on the status
// code alone and a coordinator can read the occupancy. Like /healthz it
// is exempt from authentication: a load balancer should not need a secret
// to route around a draining peer.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	rd := s.Readiness()
	status := http.StatusOK
	if !rd.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, rd)
}

// writeError serializes any error as the structured JSON error envelope,
// mapping non-APIError values to 500/internal.
func writeError(w http.ResponseWriter, err error) {
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		apiErr = &APIError{Status: 500, Code: CodeInternal, Message: err.Error()}
	}
	if apiErr.RetryAfter > 0 {
		secs := int(apiErr.RetryAfter.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(apiErr.Status)
	json.NewEncoder(w).Encode(struct {
		Error *APIError `json:"error"`
	}{apiErr})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// DecodeJobSpec parses one submitted job spec, enforcing the size bound
// and rejecting unknown fields — a typo'd field name in a hand-written
// spec should fail loudly, not silently run a default grid. It is the
// exact decoder the HTTP handler uses; the fuzz target drives it directly.
func DecodeJobSpec(b []byte) (clocksched.SweepSpec, error) {
	var spec clocksched.SweepSpec
	if len(b) > maxSpecBytes {
		return spec, &APIError{Status: 400, Code: CodeBadRequest,
			Message: fmt.Sprintf("spec exceeds %d bytes", maxSpecBytes)}
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, &APIError{Status: 400, Code: CodeBadRequest,
			Message: fmt.Sprintf("decoding spec: %v", err)}
	}
	return spec, nil
}

// readBody reads at most limit bytes of the request body, rejecting larger
// payloads with a structured 400.
func readBody(r *http.Request, limit int64) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		return nil, &APIError{Status: 400, Code: CodeBadRequest,
			Message: fmt.Sprintf("reading body: %v", err)}
	}
	if int64(len(b)) > limit {
		return nil, &APIError{Status: 400, Code: CodeBadRequest,
			Message: fmt.Sprintf("body exceeds %d bytes", limit)}
	}
	return b, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r, maxSpecBytes)
	if err != nil {
		writeError(w, err)
		return
	}
	spec, err := DecodeJobSpec(body)
	if err != nil {
		writeError(w, err)
		return
	}
	prio, err := ParsePriority(r.URL.Query().Get("priority"))
	if err != nil {
		writeError(w, &APIError{Status: 400, Code: CodeBadRequest, Message: err.Error()})
		return
	}
	client, _ := r.Context().Value(clientKey{}).(string)
	st, err := s.SubmitWith(spec, SubmitOptions{Priority: prio, Client: client})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{s.Jobs()})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleResult sends the result file itself rather than a copy in memory:
// net/http's ResponseWriter reads an *os.File with sendfile where the
// connection allows. io.Copy would not reach that path — it prefers the
// file's WriteTo, which copies through a fresh 32 KiB buffer.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	f, size, err := s.openResult(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	// Past the header a failed send can only cut the body short, which the
	// client detects against Content-Length.
	if rf, ok := w.(io.ReaderFrom); ok {
		_, _ = rf.ReadFrom(f)
	} else {
		_, _ = io.Copy(w, f) // a wrapping ResponseWriter without ReadFrom
	}
}

// eventID renders one event's SSE id: the server's boot epoch qualifying
// the per-job sequence number, "<epoch>.<seq>". Clients treat it as opaque
// and echo it verbatim in Last-Event-ID.
func (s *Server) eventID(seq int64) string {
	return s.epoch + "." + strconv.FormatInt(seq, 10)
}

// caughtUp reports whether a reconnecting client's Last-Event-ID proves it
// has already seen everything up to snapSeq from THIS server boot. Sequence
// numbers restart every boot — and a daemon restarted against a fresh data
// dir even reuses job ids — so a bare numeric match means nothing; only an
// id carrying the current epoch counts. Anything else (empty, a foreign
// epoch, a legacy bare integer, garbage) is stale and earns the full
// snapshot.
func (s *Server) caughtUp(lastEventID string, snapSeq int64) bool {
	epoch, seqStr, ok := strings.Cut(lastEventID, ".")
	if !ok || epoch != s.epoch {
		return false
	}
	seq, err := strconv.ParseInt(seqStr, 10, 64)
	return err == nil && seq > 0 && seq == snapSeq
}

// handleEvents streams the job's lifecycle over Server-Sent Events: one
// snapshot event on connect, then every progress update and state change
// until the job reaches a terminal state or the client disconnects. Every
// event carries an epoch-qualified sequence id (see eventID); a
// reconnecting client that presents the current one in Last-Event-ID skips
// the redundant snapshot, while an id from any other daemon life — however
// its numbers compare — gets the snapshot re-sent.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ch, snap, err := s.subscribe(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	defer j.unsubscribe(ch)

	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func(ev Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "id: %s\nevent: %s\ndata: %s\n\n", s.eventID(ev.Seq), ev.Type, data); err != nil {
			return false
		}
		if canFlush {
			fl.Flush()
		}
		return true
	}

	caughtUp := s.caughtUp(r.Header.Get("Last-Event-ID"), snap.Seq)
	if !caughtUp {
		if !send(snap) {
			return
		}
	}
	if snap.State.terminal() {
		if caughtUp {
			// The client saw everything up to the terminal event already;
			// re-send the terminal snapshot so the stream still ends with
			// one rather than closing silently.
			send(snap)
		}
		return
	}
	for {
		select {
		case ev := <-ch:
			if !send(ev) {
				return
			}
			if ev.Type == "state" && ev.State.terminal() {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handleMetrics merges the service registry and every job's scoped
// registry onto one Prometheus page, one TYPE line per metric family.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	telemetry.WritePrometheusAll(w, s.scopes()...)
}
