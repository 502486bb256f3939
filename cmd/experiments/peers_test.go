package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"clocksched/internal/service"
)

// startPeer serves an in-process sweepd and returns its base URL.
func startPeer(t *testing.T) string {
	t.Helper()
	s, err := service.New(service.Config{DataDir: t.TempDir(), Workers: 2})
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

// runArtifact runs the command with o and returns the named artifact.
func runArtifact(t *testing.T, o options, name string) string {
	t.Helper()
	if code := run(o); code != 0 {
		t.Fatalf("run(%+v) exited %d", o, code)
	}
	b, err := os.ReadFile(filepath.Join(o.outDir, name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestExperimentLocalVsPeers is the standing experiment's golden test
// through the fabric: the fixed-seed population cmd/experiments sweeps with
// `-only fleet`, run across two in-process sweepd peers at the committed
// size, must reduce to a summary byte-identical to the committed local one,
// results/fleet.txt, which TestGoldenArtifacts pins to a local run. Every
// shard result the coordinator verifies goes through DecodeSweepResult.
func TestExperimentLocalVsPeers(t *testing.T) {
	if testing.Short() {
		t.Skip("fabric test")
	}
	want, err := os.ReadFile(filepath.Join(goldenDir, "fleet.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, header := range []string{
		"Fleet population: " + goldenFleetDevices + " devices, seed 1",
		"Infeasible pairings",
	} {
		if !strings.Contains(string(want), header) {
			t.Fatalf("results/fleet.txt is missing %q:\n%s", header, want)
		}
	}
	t.Setenv("CLOCKSCHED_FLEET_DEVICES", goldenFleetDevices)
	peers := startPeer(t) + "," + startPeer(t)
	got := runArtifact(t, options{outDir: t.TempDir(), only: "fleet", seed: 1, workers: 2, peers: peers}, "fleet_fleet.txt")
	if got != string(want) {
		t.Errorf("-peers summary differs from results/fleet.txt:\n--- committed\n%s\n--- peers\n%s", want, got)
	}
}

// TestPeersTable2MatchesLocal runs Table 2 through the command across two
// in-process sweepd peers: the artifact must be byte-identical to the
// committed local one, which TestGoldenArtifacts pins to a local run.
func TestPeersTable2MatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("fabric test")
	}
	want, err := os.ReadFile(filepath.Join(goldenDir, "table2.txt"))
	if err != nil {
		t.Fatal(err)
	}
	peers := startPeer(t) + "," + startPeer(t)
	got := runArtifact(t, options{outDir: t.TempDir(), only: "table2", seed: 1, workers: 2, peers: peers}, "table2_fleet.txt")
	if got != string(want) {
		t.Errorf("-peers Table 2 differs from results/table2.txt:\n--- committed\n%s\n--- peers\n%s", want, got)
	}
}

// TestPeersHonourCellTimeout checks that -cell-timeout reaches the cells a
// -peers run executes: a budget no cell can meet fails the run, exactly as
// it fails the local one.
func TestPeersHonourCellTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("fabric test")
	}
	local := options{outDir: t.TempDir(), only: "table2", seed: 1, workers: 2, nocache: true, cellTimeout: time.Nanosecond}
	if code := run(local); code != 1 {
		t.Fatalf("local run with a 1ns cell budget exited %d, want 1", code)
	}
	remote := options{outDir: t.TempDir(), only: "table2", seed: 1, workers: 2, cellTimeout: time.Nanosecond, peers: startPeer(t)}
	if code := run(remote); code != 1 {
		t.Errorf("-peers run with a 1ns cell budget exited %d, want 1", code)
	}
}
