// The registry tests live in an external test package so the end-to-end
// run can append the zoo and fleet experiments, whose layers sit above
// expt, exactly as cmd/experiments does.
package expt_test

import (
	"strings"
	"testing"

	"clocksched"
	"clocksched/internal/expt"
	"clocksched/internal/fleet"
)

func TestRegistryComplete(t *testing.T) {
	reg := expt.Registry()
	seen := map[string]bool{}
	for _, e := range reg {
		if e.Name == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if seen[e.Name] {
			t.Errorf("duplicate name %q", e.Name)
		}
		seen[e.Name] = true
	}
	// The paper's evaluation section: every table and figure present.
	for _, want := range []string{
		"figure3", "figure4", "figure5", "figure6", "figure7", "figure8",
		"figure9", "table1", "table2", "table3",
	} {
		if !seen[want] {
			t.Errorf("missing experiment %q", want)
		}
	}
}

func TestFind(t *testing.T) {
	if _, ok := expt.Find(expt.Registry(), "table1"); !ok {
		t.Error("table1 not found")
	}
	if _, ok := expt.Find(expt.Registry(), "nope"); ok {
		t.Error("bogus name found")
	}
}

// TestRegistryRunsEverything executes every experiment end to end (the
// full paper reproduction, then the zoo and fleet experiments) and checks
// each produces a summary and at least one artifact.
func TestRegistryRunsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full reproduction")
	}
	// The fleet experiment defaults to a 10k-device population; a few
	// hundred devices exercise the same code end to end in test time.
	t.Setenv("CLOCKSCHED_FLEET_DEVICES", "120")
	all := append(expt.Registry(), expt.ZooExperiment(clocksched.PolicyZoo()), fleet.Experiment())
	for _, e := range all {
		t.Run(e.Name, func(t *testing.T) {
			summary, artifacts, err := e.Run(expt.DefaultEnv(1))
			if err != nil {
				t.Fatal(err)
			}
			if strings.TrimSpace(summary) == "" {
				t.Error("empty summary")
			}
			if len(artifacts) == 0 {
				t.Error("no artifacts")
			}
			for _, a := range artifacts {
				if a.Name == "" || strings.TrimSpace(a.Content) == "" {
					t.Errorf("empty artifact %q", a.Name)
				}
			}
		})
	}
}

func TestIndexHTML(t *testing.T) {
	html := expt.IndexHTML([]string{"table2.txt", "figure9.svg"})
	for _, want := range []string{
		"<!DOCTYPE html>", `href="table2.txt"`, `img src="figure9.svg"`,
	} {
		if !strings.Contains(html, want) {
			t.Errorf("index missing %q", want)
		}
	}
	// Text artifacts are linked but not inlined as images.
	if strings.Contains(html, `img src="table2.txt"`) {
		t.Error("text artifact inlined as image")
	}
}

func TestFigure9CompareArtifact(t *testing.T) {
	e, ok := expt.Find(expt.Registry(), "figure9")
	if !ok {
		t.Fatal("figure9 not registered")
	}
	_, arts, err := e.Run(expt.DefaultEnv(1))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, a := range arts {
		names[a.Name] = true
	}
	for _, want := range []string{"figure9.dat", "figure9.svg", "figure9_compare.svg"} {
		if !names[want] {
			t.Errorf("missing artifact %q", want)
		}
	}
}
