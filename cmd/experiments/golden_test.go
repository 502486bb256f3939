package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

// goldenDir holds the committed artifacts, written by
//
//	CLOCKSCHED_FLEET_DEVICES=200 go run ./cmd/experiments -nocache
//
// at the root of the checkout. A change that moves an artifact on purpose
// regenerates them in the same commit, so the diff shows in review.
const (
	goldenDir          = "../../results"
	goldenFleetDevices = "200"
)

// TestGoldenArtifacts runs every experiment as the committed artifacts
// were written, into a fresh directory, and requires the two directories
// to hold the same files with the same bytes. A mismatch names the file
// and its first differing line. It does so for three ways of running:
// -nocache on every core, -nocache on one worker, and a run with the cell
// cache followed by a -resume over it, which replays every grid and fleet
// cell from the cache and journal, so every cell's Result there is
// decoded, not simulated.
func TestGoldenArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	t.Setenv("CLOCKSCHED_FLEET_DEVICES", goldenFleetDevices)
	t.Run("nocache", func(t *testing.T) {
		checkGolden(t, options{outDir: t.TempDir(), seed: 1, workers: runtime.GOMAXPROCS(0), nocache: true})
	})
	t.Run("workers-1", func(t *testing.T) {
		checkGolden(t, options{outDir: t.TempDir(), seed: 1, workers: 1, nocache: true})
	})
	t.Run("resume", func(t *testing.T) {
		o := options{outDir: t.TempDir(), seed: 1, workers: runtime.GOMAXPROCS(0)}
		checkGolden(t, o)
		o.resume = true
		checkGolden(t, o)
	})
}

// checkGolden runs every experiment with o and holds its artifacts to the
// committed ones.
func checkGolden(t *testing.T, o options) {
	t.Helper()
	// The summaries the run prints would bury a failure's report.
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devNull.Close()
	stdout := os.Stdout
	os.Stdout = devNull
	code := run(o)
	os.Stdout = stdout
	if code != 0 {
		t.Fatalf("experiments %+v exited %d", o, code)
	}
	out := o.outDir
	got, want := artifactNames(t, out), artifactNames(t, goldenDir)
	for _, name := range want {
		if !slices.Contains(got, name) {
			t.Errorf("%s: committed but no longer written", name)
		}
	}
	for _, name := range got {
		if !slices.Contains(want, name) {
			t.Errorf("%s: written but not committed under results/", name)
			continue
		}
		a, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if line, gotLine, wantLine, differ := firstDiff(a, b); differ {
			t.Errorf("%s differs from its committed copy at line %d:\n got: %.160q\nwant: %.160q", name, line, gotLine, wantLine)
		}
	}
}

// artifactNames lists the regular files of dir, leaving out the cell cache
// and journal a run without -nocache keeps beside the artifacts.
func artifactNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.Type().IsRegular() && e.Name() != "sweep.wal" {
			names = append(names, e.Name())
		}
	}
	return names
}

// firstDiff returns the first line, counted from 1, at which a and b
// differ, and that line of each; a file that ends first reads as an empty
// line there.
func firstDiff(a, b []byte) (line int, aLine, bLine string, differ bool) {
	as, bs := bytes.SplitAfter(a, []byte("\n")), bytes.SplitAfter(b, []byte("\n"))
	for i := 0; i < max(len(as), len(bs)); i++ {
		var x, y []byte
		if i < len(as) {
			x = as[i]
		}
		if i < len(bs) {
			y = bs[i]
		}
		if !bytes.Equal(x, y) {
			return i + 1, string(x), string(y), true
		}
	}
	return 0, "", "", false
}
