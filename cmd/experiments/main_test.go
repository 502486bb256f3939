package main

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"clocksched"
	"clocksched/internal/expt"
)

// TestCatalogueOrder pins the experiment catalogue that -list prints and
// the full run executes: expt.Registry's 22 paper and extension entries,
// then the zoo and fleet experiments, every entry complete.
func TestCatalogueOrder(t *testing.T) {
	want := []string{
		"figure3", "figure4", "figure5", "table1", "figure6", "figure7",
		"figure8", "figure9", "table2", "table3", "battery", "transitions",
		"overhead", "deadline", "martin", "pering", "playback", "sensitivity",
		"exhaustion", "sa2", "dvs", "weiser", "zoo", "fleet",
	}
	var got []string
	for _, e := range catalogue() {
		if e.Paper == "" || e.Run == nil {
			t.Errorf("incomplete experiment %q", e.Name)
		}
		got = append(got, e.Name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("catalogue = %v\nwant        %v", got, want)
	}
	for _, name := range []string{"table2", "zoo", "fleet"} {
		if _, ok := expt.Find(catalogue(), name); !ok {
			t.Errorf("-only %s would not find its experiment", name)
		}
	}
}

// TestRemoteTable2MatchesLocal backs runPeers' promise that a -peers run,
// over one sweepd or many, renders Table 2 exactly as the local table
// experiment does: folding a sweep of clocksched.Table2Config yields the
// local rows, and both render to the same bytes.
func TestRemoteTable2MatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Table 2 grid twice")
	}
	cfg, err := clocksched.Table2Config(1, expt.Table2Runs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := clocksched.Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := foldTable2(res)
	if err != nil {
		t.Fatal(err)
	}
	local, err := expt.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(remote, local) {
		t.Errorf("folded sweep rows differ from the local table:\n got %+v\nwant %+v", remote, local)
	}
	if got, want := expt.RenderTable2(remote), expt.RenderTable2(local); got != want {
		t.Errorf("rendered tables differ:\n%s\nvs local\n%s", got, want)
	}
}
