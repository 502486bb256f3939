package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"clocksched"
)

// testGrid is the grid the service tests submit: one policy over a few
// seeds of the 2-second rect wave, so each cell simulates in milliseconds.
func testGrid(seeds int) clocksched.SweepConfig {
	ss := make([]uint64, seeds)
	for i := range ss {
		ss[i] = uint64(i + 1)
	}
	return clocksched.SweepConfig{
		Workloads: []clocksched.Workload{clocksched.RectWave},
		Policies:  []clocksched.Policy{bestPolicy()},
		Seeds:     ss,
		Duration:  2 * time.Second,
	}
}

// bestPolicy is the paper's best policy, PAST peg-peg, from the registry.
func bestPolicy() clocksched.Policy {
	p, err := clocksched.NewPolicy("past-peg-peg", nil)
	if err != nil {
		panic(err)
	}
	return p
}

func testSpec(seeds int) clocksched.SweepSpec {
	return clocksched.NewSweepSpec(testGrid(seeds))
}

// newTestServer builds a Server over a temp data dir, fronted by a real
// HTTP listener, and a Client pointed at it. Everything is torn down with
// the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, &Client{Base: hs.URL}
}

// waitState polls until the job reaches want (or any terminal state, which
// fails the test if it isn't want).
func waitState(t *testing.T, c *Client, id string, want JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.Status(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.terminal() {
			t.Fatalf("job %s ended %s (err %q), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobStatus{}
}

// TestSubmitRunFetchByteIdentical is the tentpole acceptance path: a grid
// job submitted over HTTP produces exactly the bytes an uninterrupted local
// Sweep encodes to.
func TestSubmitRunFetchByteIdentical(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2, MaxActiveJobs: 1})
	ctx := context.Background()

	st, err := c.Submit(ctx, testSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Total != 4 || st.State.terminal() {
		t.Fatalf("submit status %+v", st)
	}

	var progress []int
	st, err = c.Wait(ctx, st.ID, func(done, total int) {
		progress = append(progress, done)
		if total != 4 {
			t.Errorf("progress total %d, want 4", total)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Done != 4 {
		t.Fatalf("final status %+v", st)
	}
	for i := 1; i < len(progress); i++ {
		if progress[i] < progress[i-1] {
			t.Fatalf("progress not monotone: %v", progress)
		}
	}

	got, err := c.ResultBytes(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := clocksched.Sweep(ctx, testGrid(4))
	if err != nil {
		t.Fatal(err)
	}
	want, err := clocksched.EncodeSweepResult(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("remote result (%d bytes) != local encode (%d bytes)", len(got), len(want))
	}
	res, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 || res.CellAt(0, 0, 2) == nil {
		t.Fatalf("decoded result shape: %d cells", len(res.Cells))
	}
}

// TestVersionMismatchRejected pins the structured 409: a spec stamped with
// a different sim version never reaches the queue.
func TestVersionMismatchRejected(t *testing.T) {
	s, c := newTestServer(t, Config{})

	spec := testSpec(2)
	spec.SimVersion = "clocksched-sim/0"

	// In-process and over the wire, the same *APIError comes back.
	if _, err := s.Submit(spec); !isAPIError(err, 409, CodeVersionMismatch) {
		t.Fatalf("in-process submit: %v", err)
	}
	_, err := c.Submit(context.Background(), spec)
	if !isAPIError(err, 409, CodeVersionMismatch) {
		t.Fatalf("wire submit: %v", err)
	}
	var apiErr *APIError
	errors.As(err, &apiErr)
	if !strings.Contains(apiErr.Message, "clocksched-sim/0") ||
		!strings.Contains(apiErr.Message, clocksched.SimVersion()) {
		t.Errorf("mismatch message names neither version: %q", apiErr.Message)
	}
	if jobs, _ := c.Jobs(context.Background()); len(jobs) != 0 {
		t.Errorf("rejected spec created %d job(s)", len(jobs))
	}
}

// TestBadSpecsRejected covers the 400 family: invalid configs and unknown
// JSON fields.
func TestBadSpecsRejected(t *testing.T) {
	s, c := newTestServer(t, Config{})

	bad := testSpec(2)
	bad.Duration = clocksched.Duration(-time.Second)
	if _, err := s.Submit(bad); !isAPIError(err, 400, CodeInvalidSpec) {
		t.Errorf("negative duration: %v", err)
	}

	// A typo'd field must fail loudly, not run a default grid.
	resp, err := http.Post(c.url("/v1/jobs"), "application/json",
		strings.NewReader(`{"sim_version":"x","workloadz":["rect"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("unknown field accepted: %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), CodeBadRequest) {
		t.Errorf("unknown-field error body: %s", body)
	}
}

// TestQueueFullBackpressure fills the admission queue and checks the 429,
// its machine-readable code, and the Retry-After header on the wire.
func TestQueueFullBackpressure(t *testing.T) {
	_, c := newTestServer(t, Config{
		MaxQueue:      1,
		MaxActiveJobs: 1,
		Workers:       1,
		RetryAfter:    3 * time.Second,
		CellDelay:     20 * time.Millisecond, // keep the first job busy
	})
	ctx := context.Background()

	first, err := c.Submit(ctx, testSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, first.ID, StateRunning)

	second, err := c.Submit(ctx, testSpec(2))
	if err != nil {
		t.Fatalf("second submit should queue: %v", err)
	}

	_, err = c.Submit(ctx, testSpec(2))
	if !isAPIError(err, 429, CodeQueueFull) {
		t.Fatalf("third submit: %v", err)
	}
	var apiErr *APIError
	errors.As(err, &apiErr)
	if apiErr.RetryAfter != 3*time.Second {
		t.Errorf("RetryAfter %v, want 3s", apiErr.RetryAfter)
	}

	// The raw response carries the standard header too.
	body, _ := json.Marshal(testSpec(2))
	resp, err := http.Post(c.url("/v1/jobs"), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 429 || resp.Header.Get("Retry-After") != "3" {
		t.Errorf("raw 429: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Free the queue so teardown is quick.
	if _, err := c.Cancel(ctx, second.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
}

// TestCancelRunningJob cancels mid-run and checks the terminal state plus
// the 409 on fetching a result that never finished.
func TestCancelRunningJob(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, MaxActiveJobs: 1, CellDelay: 20 * time.Millisecond})
	ctx := context.Background()

	st, err := c.Submit(ctx, testSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, st.ID, StateRunning)
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCancelled {
		t.Fatalf("cancelled job ended %s", final.State)
	}
	if _, err := c.ResultBytes(ctx, st.ID); !isAPIError(err, 409, CodeNotFinished) {
		t.Errorf("result of cancelled job: %v", err)
	}
	if _, err := c.Status(ctx, "j999"); !isAPIError(err, 404, CodeNotFound) {
		t.Errorf("unknown id: %v", err)
	}
}

// TestRestartResumesJobs is the in-process half of the durability story: a
// server hard-stopped mid-job reboots from the same data dir, re-queues the
// job, replays its journal, and finishes to the byte-identical result.
func TestRestartResumesJobs(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	s1, err := New(Config{DataDir: dir, Workers: 1, MaxActiveJobs: 1, CellDelay: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit(testSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	// Let some cells commit, then stop without draining.
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, err := s1.Status(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Done >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never progressed: %+v", cur)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{DataDir: dir, Workers: 1, MaxActiveJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	hs := httptest.NewServer(s2)
	defer hs.Close()
	c := &Client{Base: hs.URL}

	final, err := c.Wait(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Done != 8 {
		t.Fatalf("resumed job ended %+v", final)
	}
	if final.Replayed < 3 {
		t.Errorf("resumed job replayed %d cells, want >= 3", final.Replayed)
	}

	got, err := c.ResultBytes(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := clocksched.Sweep(ctx, testGrid(8))
	if err != nil {
		t.Fatal(err)
	}
	want, err := clocksched.EncodeSweepResult(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed result diverged from uninterrupted local sweep")
	}

	// A third boot must keep the terminal job terminal and fetchable.
	s2.Close()
	hs.Close()
	s3, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	again, err := s3.ResultBytes(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatal("result changed across an idle reboot")
	}
}

// TestDrainLeavesQueuedJobsDurable checks graceful shutdown: running jobs
// finish, queued jobs survive to the next boot, and a draining server
// answers 503.
func TestDrainLeavesQueuedJobsDurable(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{DataDir: dir, Workers: 1, MaxActiveJobs: 1, CellDelay: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	running, err := s1.Submit(testSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	// Drain only promises to finish jobs that are already running; wait for
	// the runner to pick this one up before queueing the second.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := s1.Status(running.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	queued, err := s1.Submit(testSpec(2))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Submit(testSpec(2)); !isAPIError(err, 503, CodeDraining) {
		t.Errorf("submit while drained: %v", err)
	}
	st, err := s1.Status(running.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("running job after drain: %+v (drain must let it finish)", st)
	}

	// The queued job reboots into the queue and completes.
	s2, err := New(Config{DataDir: dir, Workers: 1, MaxActiveJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	hs := httptest.NewServer(s2)
	defer hs.Close()
	c := &Client{Base: hs.URL}
	final, err := c.Wait(context.Background(), queued.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Done != 2 {
		t.Fatalf("queued job after reboot: %+v", final)
	}
}

// TestConcurrentSubmitCancelDrain hammers the admission path from many
// goroutines — submits (some invalid), cancels, status probes, event
// subscribers — and then drains. Run under -race, this is the service's
// synchronization proof.
func TestConcurrentSubmitCancelDrain(t *testing.T) {
	s, c := newTestServer(t, Config{
		MaxQueue:      4,
		MaxActiveJobs: 2,
		Workers:       2,
		CellDelay:     time.Millisecond,
	})
	ctx := context.Background()

	var (
		mu  sync.Mutex
		ids []string
	)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 10; i++ {
				switch rng.Intn(4) {
				case 0, 1:
					spec := testSpec(1 + rng.Intn(2))
					if g == 0 && i%3 == 0 {
						spec.SimVersion = "clocksched-sim/0" // must only ever 409
					}
					st, err := c.Submit(ctx, spec)
					if err == nil {
						mu.Lock()
						ids = append(ids, st.ID)
						mu.Unlock()
					} else if !isAnyAPIError(err, 409, 429, 503) {
						t.Errorf("submit: %v", err)
					}
				case 2:
					mu.Lock()
					var id string
					if len(ids) > 0 {
						id = ids[rng.Intn(len(ids))]
					}
					mu.Unlock()
					if id != "" {
						if _, err := c.Cancel(ctx, id); err != nil {
							t.Errorf("cancel %s: %v", id, err)
						}
					}
				case 3:
					if _, err := c.Jobs(ctx); err != nil {
						t.Errorf("list: %v", err)
					}
					mu.Lock()
					var id string
					if len(ids) > 0 {
						id = ids[rng.Intn(len(ids))]
					}
					mu.Unlock()
					if id != "" {
						ectx, ecancel := context.WithTimeout(ctx, 50*time.Millisecond)
						err := c.Events(ectx, id, nil)
						ecancel()
						if err != nil && !errors.Is(err, context.DeadlineExceeded) &&
							err != io.EOF && !errors.Is(err, context.Canceled) {
							// A subscriber dropped mid-stream is fine; a
							// structured error is not.
							if _, ok := err.(*APIError); !ok && !isNetErr(err) {
								t.Errorf("events %s: %v", id, err)
							}
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()

	dctx, dcancel := context.WithTimeout(ctx, 60*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	// Every job must be in a coherent state: terminal or still queued
	// (awaiting the next boot), never stuck running.
	for _, st := range s.Jobs() {
		if st.State == StateRunning {
			t.Errorf("job %s still running after drain", st.ID)
		}
	}
}

// TestMetricsAndHealth checks the merged Prometheus page and the liveness
// probe.
func TestMetricsAndHealth(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, MaxActiveJobs: 1})
	ctx := context.Background()

	st, err := c.Submit(ctx, testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID, nil); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(c.url("/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`service_jobs_total{state="done"} 1`,
		fmt.Sprintf(`job=%q`, st.ID), // the job's scoped sweep metrics
		"sweep_cells_total",
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("metrics page missing %q:\n%s", want, page)
		}
	}

	hresp, err := http.Get(c.url("/healthz"))
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		OK         bool   `json:"ok"`
		SimVersion string `json:"sim_version"`
	}
	err = json.NewDecoder(hresp.Body).Decode(&health)
	hresp.Body.Close()
	if err != nil || !health.OK || health.SimVersion != clocksched.SimVersion() {
		t.Errorf("healthz: %+v err %v", health, err)
	}
}

// isAPIError reports whether err is an *APIError with the given status and
// code.
func isAPIError(err error, status int, code string) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.Status == status && apiErr.Code == code
}

func isAnyAPIError(err error, statuses ...int) bool {
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		return false
	}
	for _, s := range statuses {
		if apiErr.Status == s {
			return true
		}
	}
	return false
}

// isNetErr reports whether err came from the transport rather than the
// service (connections torn down by a context timeout mid-body).
func isNetErr(err error) bool {
	s := err.Error()
	return strings.Contains(s, "connection") || strings.Contains(s, "EOF") ||
		strings.Contains(s, "deadline") || strings.Contains(s, "canceled")
}
