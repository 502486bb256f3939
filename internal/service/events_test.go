package service

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"clocksched"
)

// TestEventsSurviveDaemonRestart pins the reconnect satellite: a client
// watching a job's event stream keeps one Events call alive across a full
// daemon restart — the dropped connection is redialed with Last-Event-ID
// and the call still ends on the job's terminal event, so Wait-style
// watchers never need to know the daemon bounced.
func TestEventsSurviveDaemonRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	s1, err := New(Config{
		DataDir: dir, Workers: 1, MaxActiveJobs: 1,
		CellDelay: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	hs1 := &http.Server{Handler: s1}
	go hs1.Serve(ln)

	c := &Client{Base: "http://" + addr}
	st, err := c.Submit(ctx, testSpec(12))
	if err != nil {
		t.Fatal(err)
	}

	var events atomic.Int32
	watch := make(chan error, 1)
	go func() {
		watch <- c.Events(ctx, st.ID, func(Event) error {
			events.Add(1)
			return nil
		})
	}()

	// Let a few cells commit, then bounce the daemon: connection torn, job
	// left non-terminal on disk.
	deadline := time.Now().Add(30 * time.Second)
	for {
		js, err := c.Status(ctx, st.ID)
		if err == nil && js.Done >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job made no progress before restart")
		}
		time.Sleep(10 * time.Millisecond)
	}
	before := events.Load()
	hs1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{
		DataDir: dir, Workers: 1, MaxActiveJobs: 1,
		CellDelay: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hs2 := &http.Server{Handler: s2}
	go hs2.Serve(ln2)
	defer hs2.Close()

	select {
	case err := <-watch:
		if err != nil {
			t.Fatalf("Events did not survive the restart: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Events never ended after the restart")
	}
	if events.Load() <= before {
		t.Errorf("no events observed after the restart (before %d, after %d)", before, events.Load())
	}
	final, err := c.Status(ctx, st.ID)
	if err != nil || final.State != StateDone {
		t.Fatalf("job after restart: %+v, %v", final, err)
	}
	if final.Replayed < 2 {
		t.Errorf("restarted job replayed %d cells, want >= 2", final.Replayed)
	}
}

// readSSEEvent reads one Server-Sent Event off the stream, returning its id
// and event-type lines.
func readSSEEvent(t *testing.T, br *bufio.Reader) (id, typ string) {
	t.Helper()
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading SSE stream: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "id: "):
			id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			typ = strings.TrimPrefix(line, "event: ")
		case line == "" && typ != "":
			return id, typ
		}
	}
}

// openSSE opens one raw event-stream connection with the given
// Last-Event-ID (empty omits the header) and returns a reader over it.
func openSSE(t *testing.T, ctx context.Context, base, jobID, lastEventID string) (*bufio.Reader, func()) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/v1/jobs/"+jobID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		resp.Body.Close()
		t.Fatalf("events: %s", resp.Status)
	}
	return bufio.NewReader(resp.Body), func() { resp.Body.Close() }
}

// TestEventsStaleLastEventIDGetsSnapshot pins the epoch half of the SSE
// reconnect fix at the protocol level: only a Last-Event-ID carrying this
// boot's epoch can skip the connect-time snapshot. A bare sequence number —
// what a pre-epoch client from a previous daemon life would present, and
// exactly the form whose numeric coincidence with the fresh daemon's
// restarted sequence used to be mistaken for "caught up" — and a
// foreign-epoch id with the same sequence must both be answered with an
// immediate snapshot; the genuine current id must not re-receive the event
// it already has.
func TestEventsStaleLastEventIDGetsSnapshot(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, c := newTestServer(t, Config{
		Workers: 1, MaxActiveJobs: 1, CellDelay: 300 * time.Millisecond,
	})
	st, err := c.Submit(ctx, testSpec(20))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for real progress so the job's event sequence is past zero (a
	// zero sequence never counts as caught up, by design).
	for {
		js, err := c.Status(ctx, st.ID)
		if err == nil && js.Done >= 1 {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("job made no progress")
		}
		time.Sleep(10 * time.Millisecond)
	}

	br, done := openSSE(t, ctx, c.Base, st.ID, "")
	heldID, typ := readSSEEvent(t, br)
	done()
	if typ != "state" {
		t.Fatalf("first event on a fresh connection is %q, want the state snapshot", typ)
	}
	epoch, seq, ok := strings.Cut(heldID, ".")
	if !ok || epoch == "" || seq == "" {
		t.Fatalf("SSE id %q is not epoch-qualified", heldID)
	}

	for _, stale := range []string{seq, "feedfacefeedface." + seq} {
		br, done := openSSE(t, ctx, c.Base, st.ID, stale)
		_, typ := readSSEEvent(t, br)
		done()
		if typ != "state" {
			t.Errorf("Last-Event-ID %q: first event is %q, want an immediate snapshot", stale, typ)
		}
	}

	br, done = openSSE(t, ctx, c.Base, st.ID, heldID)
	id, _ := readSSEEvent(t, br)
	done()
	if id == heldID {
		t.Errorf("current Last-Event-ID %q re-received its own event", heldID)
	}
}

// TestEventsResetAfterDataDirReset is the end-to-end regression for the
// satellite: a client's Events call rides across a daemon restart onto a
// FRESH data dir, where job ids and event sequence numbers both restart
// from scratch. The reconnect presents an id from the dead daemon's epoch;
// the server must treat it as stale and resync the client with a full
// snapshot of the new job now wearing the old job's id, and the watch must
// end on that new job's terminal event. The client counts running-state
// "state" events: one per daemon life proves the post-reset snapshot was
// sent rather than skipped on a sequence-number coincidence.
func TestEventsResetAfterDataDirReset(t *testing.T) {
	ctx := context.Background()

	s1, err := New(Config{
		DataDir: t.TempDir(), Workers: 1, MaxActiveJobs: 1,
		CellDelay: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	hs1 := &http.Server{Handler: s1}
	go hs1.Serve(ln)

	c := &Client{Base: "http://" + addr}
	st, err := c.Submit(ctx, testSpec(12))
	if err != nil {
		t.Fatal(err)
	}

	var events, runningSnaps atomic.Int32
	watch := make(chan error, 1)
	go func() {
		watch <- c.Events(ctx, st.ID, func(ev Event) error {
			events.Add(1)
			if ev.Type == "state" && ev.State == StateRunning {
				runningSnaps.Add(1)
			}
			return nil
		})
	}()

	// Let the watcher see the job running, then tear the daemon down.
	deadline := time.Now().Add(30 * time.Second)
	for runningSnaps.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("watcher never saw the job running")
		}
		time.Sleep(10 * time.Millisecond)
	}
	hs1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// A new daemon on a FRESH data dir: the manifest is empty, so the first
	// submitted job takes the same id the dead daemon handed out. Submit it
	// in-process before serving HTTP, so the watcher's reconnect can never
	// race a 404.
	s2, err := New(Config{
		DataDir: t.TempDir(), Workers: 1, MaxActiveJobs: 1,
		CellDelay: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st2, err := s2.SubmitWith(testSpec(12), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID != st.ID {
		t.Fatalf("fresh daemon assigned job id %q, want the reused %q", st2.ID, st.ID)
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hs2 := &http.Server{Handler: s2}
	go hs2.Serve(ln2)
	defer hs2.Close()

	select {
	case err := <-watch:
		if err != nil {
			t.Fatalf("Events did not survive the data-dir reset: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Events never ended after the reset")
	}
	if runningSnaps.Load() < 2 {
		t.Errorf("watcher saw %d running-state events, want one per daemon life (snapshot after reset)",
			runningSnaps.Load())
	}
	final, err := c.Status(ctx, st.ID)
	if err != nil || final.State != StateDone {
		t.Fatalf("job after reset: %+v, %v", final, err)
	}
}

// gatedServer builds a one-runner server whose executor, entered after a
// job's Running event is published, sends the job's id on entered and
// holds the job until release is closed, then sweeps it locally. The tests
// run at most two jobs, so entered never blocks.
func gatedServer(t *testing.T) (s *Server, entered chan string, release chan struct{}) {
	t.Helper()
	entered, release = make(chan string, 2), make(chan struct{})
	s, _ = newTestServer(t, Config{Workers: 1, MaxActiveJobs: 1,
		Executor: func(ctx context.Context, job ExecJob) (*clocksched.SweepResult, error) {
			entered <- job.ID
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return clocksched.Sweep(ctx, job.Config)
		}})
	return s, entered, release
}

// drainAfterRun waits for the job to finish, closes the server so its
// runner has published everything, and returns the subscriber's buffered
// events and the last sequence number the job published.
func drainAfterRun(t *testing.T, s *Server, id string, ch chan Event) ([]Event, int64) {
	t.Helper()
	waitSrvTerminal(t, s, id)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var evs []Event
	for len(ch) > 0 {
		evs = append(evs, <-ch)
	}
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	return evs, j.evSeq
}

// checkFanOut checks the events a subscriber buffered without reading:
// sequence numbers increase, the terminal done event with its final status
// comes last, and the state events in between are exactly wantStates.
func checkFanOut(t *testing.T, evs []Event, snapSeq int64, total int, wantStates []JobState) {
	t.Helper()
	if len(evs) == 0 {
		t.Fatal("subscriber buffered no events")
	}
	var states []JobState
	for i, ev := range evs {
		prev := snapSeq
		if i > 0 {
			prev = evs[i-1].Seq
		}
		if ev.Seq <= prev {
			t.Errorf("event %d has seq %d after seq %d", i, ev.Seq, prev)
		}
		if ev.Type == "state" {
			states = append(states, ev.State)
		}
	}
	if fmt.Sprint(states) != fmt.Sprint(append(wantStates, StateDone)) {
		t.Errorf("state events %v, want %v then done", states, wantStates)
	}
	last := evs[len(evs)-1]
	if last.Type != "state" || last.State != StateDone || last.Final == nil ||
		last.Final.State != StateDone || last.Final.Done != total {
		t.Errorf("last event %+v (final %+v), want the done state with a final status of %d cells", last, last.Final, total)
	}
}

// TestEventFanOut pins the event buffer each subscriber gets: a subscriber
// that reads nothing during an uninterrupted run loses nothing of a
// two-cell job, and of a 200-cell job loses only progress events.
func TestEventFanOut(t *testing.T) {
	t.Run("two cells", func(t *testing.T) {
		s, entered, release := gatedServer(t)
		if _, err := s.Submit(testSpec(1)); err != nil {
			t.Fatal(err)
		}
		<-entered // the blocker holds the only runner
		st, err := s.Submit(testSpec(2))
		if err != nil {
			t.Fatal(err)
		}
		j, ch, snap, err := s.subscribe(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		defer j.unsubscribe(ch)
		if snap.State != StateQueued {
			t.Fatalf("subscribed at %s, want queued", snap.State)
		}
		if cap(ch) != 5 {
			t.Errorf("a two-cell job's subscriber gets %d slots, want 5", cap(ch))
		}
		close(release)
		evs, lastSeq := drainAfterRun(t, s, st.ID, ch)
		checkFanOut(t, evs, snap.Seq, 2, []JobState{StateRunning})
		if int64(len(evs)) != lastSeq-snap.Seq {
			t.Errorf("subscriber buffered %d of the %d events published", len(evs), lastSeq-snap.Seq)
		}
	})
	t.Run("200 cells", func(t *testing.T) {
		s, entered, release := gatedServer(t)
		grid := testGrid(200)
		grid.Duration = 200 * time.Millisecond
		st, err := s.Submit(clocksched.NewSweepSpec(grid))
		if err != nil {
			t.Fatal(err)
		}
		<-entered // Running is published
		j, ch, snap, err := s.subscribe(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		defer j.unsubscribe(ch)
		if snap.State != StateRunning {
			t.Fatalf("subscribed at %s, want running", snap.State)
		}
		close(release)
		evs, lastSeq := drainAfterRun(t, s, st.ID, ch)
		checkFanOut(t, evs, snap.Seq, 200, nil)
		if int64(len(evs)) >= lastSeq-snap.Seq {
			t.Errorf("subscriber buffered all %d events published; want progress shed past %d slots", len(evs), cap(ch))
		}
	})
}
