package service

// Coverage for how the client surfaces a 429's Retry-After hint, and for
// the /readyz probe's readiness state transitions.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"clocksched"
)

// TestSubmitHonorsRetryAfterHeader checks that a 429 surfaces at once, in
// one request, carrying the hint of the Retry-After header (integer
// seconds, as real servers send) when the body has none: the caller, not
// the client, decides when to come back.
func TestSubmitHonorsRetryAfterHeader(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(map[string]any{
			"error": &APIError{Code: CodeQueueFull, Message: "full"},
		})
	}))
	t.Cleanup(srv.Close)
	_, err := (&Client{Base: srv.URL}).Submit(context.Background(), clocksched.NewSweepSpec(testGrid(1)))
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 429 || apiErr.Code != CodeQueueFull {
		t.Fatalf("submit into a full queue returned %v, want the 429", err)
	}
	if apiErr.RetryAfter != time.Second {
		t.Errorf("RetryAfter = %v, want the header's 1s", apiErr.RetryAfter)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("made %d requests, want 1", n)
	}
}
func TestReadyzProbe(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, MaxQueue: 4})
	resp, err := http.Get(c.Base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rd Readiness
	if err := json.NewDecoder(resp.Body).Decode(&rd); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !rd.Ready || rd.Draining {
		t.Fatalf("idle daemon readiness: status %d, %+v", resp.StatusCode, rd)
	}
	if rd.MaxQueue != 4 || rd.SimVersion != clocksched.SimVersion() {
		t.Errorf("readiness snapshot wrong: %+v", rd)
	}

	// Draining flips the probe to 503 with Ready false, same body shape.
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Get(c.Base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rd2 Readiness
	if err := json.NewDecoder(resp2.Body).Decode(&rd2); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable || rd2.Ready || !rd2.Draining {
		t.Fatalf("draining daemon readiness: status %d, %+v", resp2.StatusCode, rd2)
	}
}

func TestReadyzNeedsNoToken(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, Auth: authTable(t)})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(c.Base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusUnauthorized {
			t.Errorf("%s demands authentication; probes cannot carry tokens", path)
		}
	}
	// Everything else still does.
	resp, err := http.Get(c.Base + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("/v1/jobs without a token answered %d, want 401", resp.StatusCode)
	}
}
