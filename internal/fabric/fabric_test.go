package fabric

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"clocksched"
	"clocksched/internal/fault"
	"clocksched/internal/journal"
	"clocksched/internal/service"
)

// fabricGrid is the grid the fabric tests run: one policy over n seeds of
// the 2-second rect wave, so each cell simulates in milliseconds.
func fabricGrid(n int) clocksched.SweepConfig {
	seeds := make([]uint64, n)
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

// bestPolicy is the paper's best policy, PAST peg-peg, from the registry.
func bestPolicy() clocksched.Policy {
	p, err := clocksched.NewPolicy("past-peg-peg", nil)
	if err != nil {
		panic(err)
	}
	return p
}

// serialBytes runs the spec uninterrupted in-process and returns its
// canonical encoding — the byte-identity reference every fabric test
// compares against.
func serialBytes(t *testing.T, spec clocksched.SweepSpec) []byte {
	t.Helper()
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	res, err := clocksched.Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := clocksched.EncodeSweepResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// startPeer brings up one in-process sweepd peer and returns its base URL.
func startPeer(t *testing.T, cfg service.Config) string {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	s, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return hs.URL
}

// runFabric runs the spec through a coordinator and returns the merged
// result's canonical bytes (plus the coordinator, for metric asserts).
func runFabric(t *testing.T, cfg Config, spec clocksched.SweepSpec) ([]byte, *Coordinator) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, err := co.Run(ctx, spec)
	if err != nil {
		t.Fatalf("fabric run: %v", err)
	}
	b, err := clocksched.EncodeSweepResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return b, co
}

func TestFabricNoPeersRunsLocally(t *testing.T) {
	spec := clocksched.NewSweepSpec(fabricGrid(6))
	want := serialBytes(t, spec)
	got, co := runFabric(t, Config{ShardCells: 2}, spec)
	if !bytes.Equal(got, want) {
		t.Fatal("one-node fabric differs from a local sweep")
	}
	if co.Metrics().Counter("fabric_local_shards_total").Value() != 3 {
		t.Errorf("local shard count = %v, want 3", co.Metrics().Counter("fabric_local_shards_total").Value())
	}
}

// TestFabricTwoPeersByteIdentical runs one 8-cell grid as 4 shards of 2
// cells across 1, 2 and 4 peers: every merge is byte-identical to the
// serial sweep, progress only climbs, and every shard is dispatched once.
func TestFabricTwoPeersByteIdentical(t *testing.T) {
	spec := clocksched.NewSweepSpec(fabricGrid(8))
	want := serialBytes(t, spec)
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("peers=%d", n), func(t *testing.T) {
			peers := make([]string, n)
			for i := range peers {
				peers[i] = startPeer(t, service.Config{Workers: 2})
			}

			var mu sync.Mutex
			lastDone := 0
			got, co := runFabric(t, Config{
				Peers:        peers,
				ShardCells:   2,
				StealAfter:   -1, // exact dispatch accounting below
				PollInterval: 5 * time.Millisecond,
				Progress: func(done, total int) {
					mu.Lock()
					defer mu.Unlock()
					if done <= lastDone || total != 8 {
						t.Errorf("progress went backwards or wrong total: %d/%d after %d", done, total, lastDone)
					}
					lastDone = done
				},
			}, spec)
			if !bytes.Equal(got, want) {
				t.Fatalf("%d-peer fabric differs from the serial sweep", n)
			}
			mu.Lock()
			defer mu.Unlock()
			if lastDone != 8 {
				t.Errorf("final progress %d, want 8", lastDone)
			}
			reg := co.Metrics()
			var dispatched int64
			for _, p := range peers {
				dispatched += reg.Counter(mDispatch(p)).Value()
			}
			if dispatched != 4 {
				t.Errorf("dispatched %v shards, want 4", dispatched)
			}
			if reg.Counter(mLocalRuns).Value() != 0 {
				t.Errorf("healthy fleet still ran shards locally")
			}
		})
	}
}

func TestFabricVersionMismatchIsStructured(t *testing.T) {
	spec := clocksched.NewSweepSpec(fabricGrid(2))
	spec.SimVersion = "clocksched-sim/0-bogus"
	co, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	_, err = co.Run(context.Background(), spec)
	var apiErr *service.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != service.CodeVersionMismatch {
		t.Fatalf("version skew surfaced as %v, want APIError %s", err, service.CodeVersionMismatch)
	}
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted an empty Dir")
	}
}

func TestFabricAllPeersDownFallsBackLocal(t *testing.T) {
	spec := clocksched.NewSweepSpec(fabricGrid(6))
	want := serialBytes(t, spec)
	// Nothing listens on these ports; every dispatch fails at dial time.
	got, co := runFabric(t, Config{
		Peers:             []string{"http://127.0.0.1:1", "http://127.0.0.1:2"},
		ShardCells:        3,
		PeerBackoff:       10 * time.Millisecond,
		MaxRemoteAttempts: 2,
		RequestTimeout:    2 * time.Second,
		StealAfter:        -1,
	}, spec)
	if !bytes.Equal(got, want) {
		t.Fatal("degraded fabric differs from a local sweep")
	}
	if co.Metrics().Counter(mLocalRuns).Value() == 0 {
		t.Error("no shard ran locally with every peer down")
	}
}

func TestFabricNetChaosByteIdentical(t *testing.T) {
	spec := clocksched.NewSweepSpec(fabricGrid(8))
	want := serialBytes(t, spec)
	peer := startPeer(t, service.Config{Workers: 2})
	in, err := fault.NewNetInjector(&fault.NetPlan{
		RefuseProb:        0.15,
		LatencyProb:       0.10,
		LatencyMax:        5 * time.Millisecond,
		CutBodyProb:       0.10,
		PartitionProb:     0.03,
		PartitionRequests: 4,
	}, 1234)
	if err != nil {
		t.Fatal(err)
	}
	got, co := runFabric(t, Config{
		Peers:             []string{peer},
		Transport:         in.RoundTripper(nil),
		ShardCells:        2,
		HeartbeatTimeout:  2 * time.Second,
		PollInterval:      10 * time.Millisecond,
		PeerBackoff:       10 * time.Millisecond,
		MaxRemoteAttempts: 3,
		RequestTimeout:    2 * time.Second,
		Seed:              99,
	}, spec)
	if !bytes.Equal(got, want) {
		t.Fatalf("fabric under network chaos (%v) differs from the serial sweep", in.Counts())
	}
	if in.Counts().Total() == 0 {
		t.Error("chaos run injected nothing; the test proved nothing")
	}
	_ = co
}

func TestFabricStealsFromStraggler(t *testing.T) {
	spec := clocksched.NewSweepSpec(fabricGrid(8))
	want := serialBytes(t, spec)
	// Peer 1 crawls (200ms per cell); peer 2 is healthy and will finish its
	// own shards, hit the tail, and steal the straggler's lease.
	slow := startPeer(t, service.Config{Workers: 1, CellDelay: 200 * time.Millisecond})
	fast := startPeer(t, service.Config{Workers: 2})
	got, co := runFabric(t, Config{
		Peers:            []string{slow, fast},
		ShardCells:       2,
		StealAfter:       50 * time.Millisecond,
		HeartbeatTimeout: 30 * time.Second, // stealing, not lease expiry, must finish this
		PollInterval:     10 * time.Millisecond,
		Seed:             7,
	}, spec)
	if !bytes.Equal(got, want) {
		t.Fatal("fabric with stealing differs from the serial sweep")
	}
	reg := co.Metrics()
	steals := reg.Counter(mSteal(slow)).Value() + reg.Counter(mSteal(fast)).Value() +
		reg.Counter(mSteal(localName)).Value()
	if steals == 0 {
		t.Error("tail stealing never fired against a 200ms/cell straggler")
	}
}

func TestFabricResumesLedgerAfterInterruption(t *testing.T) {
	spec := clocksched.NewSweepSpec(fabricGrid(8))
	want := serialBytes(t, spec)
	dir := t.TempDir()

	// First coordinator: cancel as soon as three cells have committed.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	co1, err := New(Config{
		Dir:        dir,
		ShardCells: 1,
		Progress: func(done, total int) {
			if done >= 3 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co1.Run(ctx, spec); err == nil {
		t.Fatal("interrupted run reported success")
	}

	// Second coordinator over the same dir: committed shards replay from
	// the ledger, the rest compute, and the merged bytes are identical.
	co2, err := New(Config{Dir: dir, ShardCells: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := co2.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry.Replayed < 3 {
		t.Errorf("resumed run replayed %d cells, want >= 3", res.Telemetry.Replayed)
	}
	got, err := clocksched.EncodeSweepResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed fabric differs from the serial sweep")
	}

	// A different spec in the same dir must not adopt the stale ledger.
	other := clocksched.NewSweepSpec(fabricGrid(4))
	co3, err := New(Config{Dir: dir, ShardCells: 2})
	if err != nil {
		t.Fatal(err)
	}
	res3, err := co3.Run(context.Background(), other)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Telemetry.Replayed != 0 {
		t.Errorf("spec change replayed %d cells from a foreign ledger", res3.Telemetry.Replayed)
	}
	got3, err := clocksched.EncodeSweepResult(res3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got3, serialBytes(t, other)) {
		t.Fatal("post-spec-change fabric differs from the serial sweep")
	}
}

func TestFabricPeerRestartWithFreshDataDir(t *testing.T) {
	// A peer whose job vanished (404 on status: daemon restarted with an
	// empty data dir) is a peer failure, not a hang: the shard re-dispatches
	// and the sweep completes.
	spec := clocksched.NewSweepSpec(fabricGrid(4))
	want := serialBytes(t, spec)
	peer := startPeer(t, service.Config{Workers: 2})

	dir := t.TempDir()
	// Forge a ledger holding an adoptable lease for a job id the peer has
	// never heard of; the adoption must fall back to a fresh submit.
	sha, err := specSHA(spec)
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := journal.OpenFS(filepath.Join(dir, "fabric.wal"), false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Record{
		{Op: opPlan, Plan: &ShardPlan{SpecSHA: sha, Total: 4, ShardCells: 2, Count: 2}},
		{Op: opLease, Shard: 0, Peer: peer, Job: "j999"},
	} {
		b, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	co, err := New(Config{
		Dir:          dir,
		Peers:        []string{peer},
		ShardCells:   2,
		PollInterval: 10 * time.Millisecond,
		PeerBackoff:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := clocksched.EncodeSweepResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("fabric after peer data loss differs from the serial sweep")
	}
}
