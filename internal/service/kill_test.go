package service

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"clocksched"
)

// killGrid is the grid the daemon crash test submits: small cells, enough
// of them that a SIGKILL always lands mid-job.
func killGrid() clocksched.SweepConfig {
	seeds := make([]uint64, 12)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	return clocksched.SweepConfig{
		Workloads: []clocksched.Workload{clocksched.RectWave},
		Policies:  []clocksched.Policy{bestPolicy()},
		Seeds:     seeds,
		Duration:  2 * time.Second,
	}
}

// TestServiceKillChild is the subprocess half of the daemon crash test: it
// serves a Server over a loopback listener, printing the bound address,
// until the parent SIGKILLs it. It skips unless the parent set the data-dir
// environment variable.
func TestServiceKillChild(t *testing.T) {
	dir := os.Getenv("CLOCKSCHED_SERVICE_CHILD_DIR")
	if dir == "" {
		t.Skip("subprocess helper; run via TestServiceKillAndResume")
	}
	s, err := New(Config{
		DataDir:       dir,
		Workers:       1,
		MaxActiveJobs: 1,
		// Real cells finish in milliseconds; the delay widens the window so
		// the parent's SIGKILL always lands between journal commits.
		CellDelay: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("addr %s\n", ln.Addr())
	// Serve until killed; by design this never returns cleanly.
	t.Fatal(http.Serve(ln, s))
}

// startChild re-execs the test binary as a sweepd-like daemon running the
// named child test with the given environment, and returns the base URL it
// bound.
func startChild(t *testing.T, testName string, env ...string) (*exec.Cmd, string) {
	t.Helper()
	child := exec.Command(os.Args[0], "-test.run="+testName+"$", "-test.v")
	child.Env = append(os.Environ(), env...)
	stdout, err := child.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	child.Stderr = os.Stderr
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "addr "); ok {
			// Keep draining stdout so the child never blocks on a full pipe.
			go func() {
				for sc.Scan() {
				}
			}()
			return child, "http://" + addr
		}
	}
	t.Fatalf("child never printed its address: %v", child.Wait())
	return nil, ""
}

// TestServiceKillAndResume is the daemon durability acceptance test: a job
// is submitted over HTTP, the daemon is SIGKILLed mid-job — no drain, no
// cleanup — and a second daemon over the same data dir resumes the job to a
// result byte-identical to an uninterrupted local Sweep, replaying the
// committed cells instead of re-simulating them.
func TestServiceKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	ctx := context.Background()

	child, base := startChild(t, "TestServiceKillChild", "CLOCKSCHED_SERVICE_CHILD_DIR="+dir)
	c := &Client{Base: base}

	st, err := c.Submit(ctx, clocksched.NewSweepSpec(killGrid()))
	if err != nil {
		t.Fatal(err)
	}

	// Watch the event stream until three cells have committed — each
	// progress event is published only after the cell's journal record is
	// fsynced — then kill without warning.
	ectx, ecancel := context.WithTimeout(ctx, 60*time.Second)
	err = c.Events(ectx, st.ID, func(ev Event) error {
		if ev.Type == "progress" && ev.Done >= 3 {
			return errSeenEnough
		}
		return nil
	})
	ecancel()
	if err != errSeenEnough {
		t.Fatalf("waiting for progress: %v", err)
	}
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	err = child.Wait()
	if ws, ok := child.ProcessState.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() {
		t.Fatalf("child did not die of the signal: err=%v state=%v", err, child.ProcessState)
	}

	// Second daemon, same data dir: the manifest re-queues the job and the
	// cell journal replays the committed cells.
	child2, base2 := startChild(t, "TestServiceKillChild", "CLOCKSCHED_SERVICE_CHILD_DIR="+dir)
	defer func() {
		child2.Process.Kill()
		child2.Wait()
	}()
	c2 := &Client{Base: base2}

	wctx, wcancel := context.WithTimeout(ctx, 120*time.Second)
	defer wcancel()
	final, err := c2.Wait(wctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Done != 12 {
		t.Fatalf("resumed job ended %+v", final)
	}
	if final.Replayed < 3 {
		t.Errorf("resumed job replayed %d cells, want >= 3", final.Replayed)
	}

	got, err := c2.ResultBytes(wctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := clocksched.Sweep(ctx, killGrid())
	if err != nil {
		t.Fatal(err)
	}
	want, err := clocksched.EncodeSweepResult(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-kill result (%d bytes) != uninterrupted local sweep (%d bytes)",
			len(got), len(want))
	}
}

// errSeenEnough is the sentinel the event watcher returns once the kill
// window is open.
var errSeenEnough = fmt.Errorf("seen enough progress")
