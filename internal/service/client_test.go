package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestResultBytesContentLength checks that ResultBytes reads the whole body
// whatever Content-Length the peer announces, and that an absurd one does
// not size the buffer.
func TestResultBytesContentLength(t *testing.T) {
	body := strings.Repeat("canonical result ", 300)
	for _, tc := range []struct {
		name   string
		length int64
	}{
		{"exact", int64(len(body))},
		{"unknown", -1},
		{"short", 10},
		{"huge", 1 << 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := &Client{Base: "http://peer", Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
				return &http.Response{
					StatusCode:    http.StatusOK,
					ContentLength: tc.length,
					Body:          io.NopCloser(strings.NewReader(body)),
					Request:       r,
				}, nil
			})}
			got, err := c.ResultBytes(context.Background(), "j1")
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != body {
				t.Errorf("read %d bytes, want the %d-byte body", len(got), len(body))
			}
			// The allocator rounds sizes up, so allow twice what the header
			// (capped) or the body justifies.
			if limit := 2 * (min(max(tc.length, int64(len(body))), maxResultPrealloc) + bytes.MinRead); int64(cap(got)) > limit {
				t.Errorf("read into a %d-byte buffer, want at most %d", cap(got), limit)
			}
		})
	}
}

// TestEventsLongLine sends an event line far longer than the stream's
// initial read buffer: the scanner must grow to take it whole.
func TestEventsLongLine(t *testing.T) {
	long := strings.Repeat("x", 200<<10)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		b, _ := json.Marshal(Event{Type: "state", State: StateFailed, Error: long})
		fmt.Fprintf(w, "id: e.1\ndata: %s\n\n", b)
	}))
	defer srv.Close()
	var got []Event
	err := (&Client{Base: srv.URL}).Events(context.Background(), "j1", func(ev Event) error {
		got = append(got, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Error != long {
		t.Errorf("got %d events; want one failed state carrying the %d-byte error", len(got), len(long))
	}
}

// TestWaitUnknownJob waits on a job id the daemon never issued: the 404 is
// the answer, returned at once rather than retried until the deadline.
func TestWaitUnknownJob(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	_, err := c.Wait(ctx, "j-nope", nil)
	if !isAPIError(err, http.StatusNotFound, CodeNotFound) {
		t.Fatalf("Wait on an unknown job returned %v after %v, want a 404 %s", err, time.Since(start), CodeNotFound)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Wait took %v to report an unknown job", d)
	}
}

// countingTransport carries requests over the default transport and
// records each as "METHOD /path".
type countingTransport struct {
	mu   sync.Mutex
	reqs []string
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.mu.Lock()
	c.reqs = append(c.reqs, r.Method+" "+r.URL.Path)
	c.mu.Unlock()
	return http.DefaultTransport.RoundTrip(r)
}

// count reports how many recorded requests equal req.
func (c *countingTransport) count(req string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, r := range c.reqs {
		if r == req {
			n++
		}
	}
	return n
}

// TestWaitEndsOnTerminalEvent follows a batch job from an authenticated
// client through a preemption and its resumed run: Wait must return the
// final status the terminal event carries, equal to the server's own
// status field for field, without a status request.
func TestWaitEndsOnTerminalEvent(t *testing.T) {
	s, c := newTestServer(t, Config{
		Workers: 1, MaxActiveJobs: 1, CellDelay: 20 * time.Millisecond, Auth: authTable(t),
	})
	c.Token = "carol-token"
	ct := &countingTransport{}
	cw := &Client{Base: c.Base, Token: c.Token, Transport: ct}
	ctx := context.Background()

	b, err := c.SubmitWith(ctx, testSpec(8), SubmitOptions{Priority: PriorityBatch})
	if err != nil {
		t.Fatal(err)
	}
	type waited struct {
		st  JobStatus
		err error
	}
	got := make(chan waited, 1)
	go func() {
		st, err := cw.Wait(ctx, b.ID, nil)
		got <- waited{st, err}
	}()

	// Preempt the batch job once a cell is journaled, so its resumed run
	// replays that cell.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := s.Status(b.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Done >= 1 {
			break
		}
		if st.State.terminal() || time.Now().After(deadline) {
			t.Fatalf("batch job never completed a cell while running: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := c.SubmitWith(ctx, testSpec(1), SubmitOptions{Priority: PriorityInteractive}); err != nil {
		t.Fatal(err)
	}

	var w waited
	select {
	case w = <-got:
	case <-time.After(60 * time.Second):
		t.Fatal("Wait never returned")
	}
	if w.err != nil {
		t.Fatal(w.err)
	}
	want, err := s.Status(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if w.st != want {
		t.Errorf("Wait returned %+v, server status is %+v", w.st, want)
	}
	if want.State != StateDone || want.Replayed == 0 || want.Preemptions == 0 ||
		want.Priority != PriorityBatch || want.Client != "carol" {
		t.Errorf("job did not end done, replayed, preempted, batch and carol's: %+v", want)
	}
	if n := ct.count("GET /v1/jobs/" + b.ID); n != 0 {
		t.Errorf("Wait issued %d status requests after a terminal event with a final status", n)
	}
}

// TestWaitProbesWithoutFinal serves a stream whose terminal event carries
// no final status, as an older daemon's does: Wait asks for the status
// exactly once and returns it.
func TestWaitProbesWithoutFinal(t *testing.T) {
	want := JobStatus{ID: "j1", State: StateDone, Done: 2, Total: 2, Replayed: 1}
	var probes atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/j1/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		b, _ := json.Marshal(Event{Type: "state", State: StateDone, Done: 2, Total: 2, Seq: 1})
		fmt.Fprintf(w, "id: e.1\nevent: state\ndata: %s\n\n", b)
	})
	mux.HandleFunc("GET /v1/jobs/j1", func(w http.ResponseWriter, r *http.Request) {
		probes.Add(1)
		writeJSON(w, http.StatusOK, want)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	st, err := (&Client{Base: srv.URL}).Wait(context.Background(), "j1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st != want {
		t.Errorf("Wait returned %+v, want the probed %+v", st, want)
	}
	if n := probes.Load(); n != 1 {
		t.Errorf("Wait made %d status probes, want 1", n)
	}
}

// TestWaitOutlastsFailedStreams refuses the event stream five times in a
// row before any event is sent — three 503s, then two connections closed
// before a response — and only then serves it: Wait must still return the
// final status of the terminal event, with no status request.
func TestWaitOutlastsFailedStreams(t *testing.T) {
	want := JobStatus{ID: "j1", State: StateDone, Done: 2, Total: 2}
	var attempts, probes atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/j1/events", func(w http.ResponseWriter, r *http.Request) {
		switch n := attempts.Add(1); {
		case n <= 3:
			writeError(w, &APIError{Status: http.StatusServiceUnavailable, Code: CodeDraining, Message: "restarting"})
			return
		case n <= 5:
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			conn.Close()
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		b, _ := json.Marshal(Event{Type: "state", State: StateDone, Done: 2, Total: 2, Seq: 1, Final: &want})
		fmt.Fprintf(w, "id: e.1\nevent: state\ndata: %s\n\n", b)
	})
	mux.HandleFunc("GET /v1/jobs/j1", func(w http.ResponseWriter, r *http.Request) {
		probes.Add(1)
		writeJSON(w, http.StatusOK, want)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := (&Client{Base: srv.URL}).Wait(ctx, "j1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st != want {
		t.Errorf("Wait returned %+v, want the final %+v", st, want)
	}
	if n := attempts.Load(); n != 6 {
		t.Errorf("Wait opened the stream %d times, want 6", n)
	}
	if n := probes.Load(); n != 0 {
		t.Errorf("Wait made %d status probes, want 0", n)
	}
}
