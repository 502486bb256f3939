package fabric

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"clocksched"
	"clocksched/internal/fault"
	"clocksched/internal/service"
)

// chaosGrid is the grid the SIGKILL tests sweep: enough slow-ish cells
// that a kill always lands mid-run.
func chaosGrid() clocksched.SweepConfig { return fabricGrid(12) }

// chaosNetPlan is the network fault mix armed on both the killed
// coordinator and its resumption — the acceptance criterion runs the whole
// gauntlet at once.
func chaosNetPlan() *fault.NetPlan {
	return &fault.NetPlan{
		RefuseProb:        0.10,
		LatencyProb:       0.10,
		LatencyMax:        5 * time.Millisecond,
		CutBodyProb:       0.05,
		PartitionProb:     0.02,
		PartitionRequests: 3,
	}
}

// startChild re-execs the test binary running the named child test and
// returns once the child printed its "addr" line.
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

// killHard SIGKILLs the child and verifies it died of the signal.
func killHard(t *testing.T, child *exec.Cmd) {
	t.Helper()
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	err := child.Wait()
	if ws, ok := child.ProcessState.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() {
		t.Fatalf("child did not die of the signal: err=%v state=%v", err, child.ProcessState)
	}
}

// TestFabricPeerChild serves one slow sweepd peer until SIGKILLed.
func TestFabricPeerChild(t *testing.T) {
	dir := os.Getenv("CLOCKSCHED_FABRIC_PEER_DIR")
	if dir == "" {
		t.Skip("subprocess helper; run via TestFabricPeerKillMidShard")
	}
	s, err := service.New(service.Config{
		DataDir: dir,
		Workers: 1,
		// Slow cells keep shards in flight long enough that the parent's
		// SIGKILL always lands mid-shard.
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
	t.Fatal(http.Serve(ln, s))
}

// TestFabricPeerKillMidShard is the peer-crash half of the chaos
// acceptance: a two-peer fabric loses one peer to SIGKILL mid-shard, the
// coordinator expires the dead peer's lease and re-dispatches, and the
// merged result is byte-identical to the uninterrupted serial sweep.
func TestFabricPeerKillMidShard(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	spec := clocksched.NewSweepSpec(chaosGrid())
	want := serialBytes(t, spec)

	child, doomed := startChild(t, "TestFabricPeerChild", "CLOCKSCHED_FABRIC_PEER_DIR="+t.TempDir())
	healthy := startPeer(t, service.Config{Workers: 2})

	// Kill the slow peer once the sweep is demonstrably underway. The
	// progress callback runs on coordinator goroutines, so it only signals;
	// the kill itself runs on a dedicated goroutine and is verified after
	// Run returns.
	var killed atomic.Bool
	progress := make(chan int, 64)
	go func() {
		for done := range progress {
			if done >= 2 && !killed.Swap(true) {
				child.Process.Kill()
				return
			}
		}
	}()

	co, err := New(Config{
		Dir:              t.TempDir(),
		Peers:            []string{doomed, healthy},
		ShardCells:       2,
		HeartbeatTimeout: time.Second,
		PeerBackoff:      20 * time.Millisecond,
		RequestTimeout:   5 * time.Second,
		Seed:             11,
		Progress: func(done, total int) {
			select {
			case progress <- done:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, err := co.Run(ctx, spec)
	close(progress)
	if err != nil {
		t.Fatalf("fabric run with a killed peer: %v", err)
	}
	if !killed.Load() {
		// The run finished before any progress crossed the threshold —
		// impossible with 12 cells, but fail loudly rather than silently
		// skip the kill.
		t.Fatal("peer was never killed; the test proved nothing")
	}
	werr := child.Wait()
	if ws, ok := child.ProcessState.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() {
		t.Fatalf("peer did not die of the signal: err=%v state=%v", werr, child.ProcessState)
	}
	got, err := clocksched.EncodeSweepResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("fabric result after peer SIGKILL differs from the serial sweep")
	}
}

// TestFabricCoordChild runs a coordinator under armed network faults until
// SIGKILLed. The peer URL and state dir come from the parent.
func TestFabricCoordChild(t *testing.T) {
	dir := os.Getenv("CLOCKSCHED_FABRIC_COORD_DIR")
	peer := os.Getenv("CLOCKSCHED_FABRIC_COORD_PEER")
	if dir == "" || peer == "" {
		t.Skip("subprocess helper; run via TestFabricCoordKillAndResume")
	}
	in, err := fault.NewNetInjector(chaosNetPlan(), 5150)
	if err != nil {
		t.Fatal(err)
	}
	co, err := New(Config{
		Dir:              dir,
		Peers:            []string{peer},
		Transport:        in.RoundTripper(nil),
		ShardCells:       2,
		HeartbeatTimeout: 2 * time.Second,
		PeerBackoff:      20 * time.Millisecond,
		RequestTimeout:   5 * time.Second,
		Seed:             5150,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The parent watches the dir for committed shards; the addr line just
	// reuses the startChild handshake to mean "running".
	fmt.Println("addr 127.0.0.1:0")
	if _, err := co.Run(context.Background(), clocksched.NewSweepSpec(chaosGrid())); err != nil {
		t.Fatal(err)
	}
	// Survive until the kill even if the run somehow finished first.
	time.Sleep(time.Minute)
}

// TestFabricCoordKillAndResume is the coordinator-crash half of the chaos
// acceptance: a coordinator running under armed network faults is
// SIGKILLed mid-sweep — no drain, no cleanup — and a second coordinator
// over the same state dir, faults still armed, resumes the ledger
// (replaying committed shards, adopting live leases) to a result
// byte-identical to the uninterrupted serial sweep.
func TestFabricCoordKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	spec := clocksched.NewSweepSpec(chaosGrid())
	want := serialBytes(t, spec)
	dir := t.TempDir()

	// The peer outlives the coordinator, and its slow cells hold shards in
	// flight so the kill lands with leases outstanding.
	peer := startPeer(t, service.Config{Workers: 1, CellDelay: 100 * time.Millisecond})
	child, _ := startChild(t, "TestFabricCoordChild",
		"CLOCKSCHED_FABRIC_COORD_DIR="+dir,
		"CLOCKSCHED_FABRIC_COORD_PEER="+peer,
	)

	// Kill once at least one shard has durably committed.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if m, _ := filepath.Glob(filepath.Join(dir, "shard-*.bin")); len(m) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			killHard(t, child)
			t.Fatal("no shard committed within 60s")
		}
		time.Sleep(20 * time.Millisecond)
	}
	killHard(t, child)

	in, err := fault.NewNetInjector(chaosNetPlan(), 6061)
	if err != nil {
		t.Fatal(err)
	}
	co, err := New(Config{
		Dir:              dir,
		Peers:            []string{peer},
		Transport:        in.RoundTripper(nil),
		ShardCells:       2,
		HeartbeatTimeout: 2 * time.Second,
		PeerBackoff:      20 * time.Millisecond,
		RequestTimeout:   5 * time.Second,
		Seed:             6061,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, err := co.Run(ctx, spec)
	if err != nil {
		t.Fatalf("resumed fabric run: %v", err)
	}
	if res.Telemetry.Replayed < 2 {
		t.Errorf("resumed coordinator replayed %d cells, want >= 2 (one shard)", res.Telemetry.Replayed)
	}
	got, err := clocksched.EncodeSweepResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("fabric result after coordinator SIGKILL + resume differs from the serial sweep")
	}
}
