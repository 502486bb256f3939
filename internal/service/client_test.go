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
