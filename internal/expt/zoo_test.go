// The zoo acceptance tests live in an external test package: they import
// the root clocksched package for its registry enumeration
// (clocksched.PolicyZoo), exactly as cmd/experiments does, without creating
// an import cycle in the library itself.
package expt_test

import (
	"reflect"
	"strings"
	"testing"

	"clocksched"
	"clocksched/internal/cpu"
	"clocksched/internal/expt"
	"clocksched/internal/policy"
	"clocksched/internal/sim"
)

// TestZooComparisonAcceptance is ISSUE 8's headline acceptance criterion:
// on every comparison workload the oracle's energy lower-bounds every
// registered policy — the five paper policies and the deadline-feasible
// family alike — and the oracle itself misses nothing (ZooComparison fails
// internally otherwise, via VerifySchedule).
func TestZooComparisonAcceptance(t *testing.T) {
	rows, err := expt.ZooComparison(expt.DefaultEnv(1), clocksched.PolicyZoo(), 0)
	if err != nil {
		t.Fatal(err)
	}
	names := clocksched.RegisteredPolicies()
	perGroup := 1 + len(names)
	if len(rows) != len(expt.FigureWorkloads)*perGroup {
		t.Fatalf("%d rows, want %d workloads × %d", len(rows), len(expt.FigureWorkloads), perGroup)
	}
	for wi, w := range expt.FigureWorkloads {
		group := rows[wi*perGroup : (wi+1)*perGroup]
		or := group[0]
		if or.Workload != w || or.Policy != expt.ZooOracleName {
			t.Fatalf("group %d starts with %s/%s, want %s/%s",
				wi, or.Workload, or.Policy, w, expt.ZooOracleName)
		}
		if or.Norm != 1 || or.TraceMissPct != 0 {
			t.Fatalf("%s oracle row: norm %v, miss %v%%", w, or.Norm, or.TraceMissPct)
		}
		for i, name := range names {
			r := group[1+i]
			if r.Workload != w || r.Policy != name {
				t.Fatalf("row %s/%s, want %s/%s", r.Workload, r.Policy, w, name)
			}
			if r.Norm < 1-1e-9 {
				t.Errorf("%s: policy %q beats the oracle: ×opt = %v", w, name, r.Norm)
			}
		}
	}
}

// TestZooOptSpeedsNeverBeatsOracle extends the criterion to OptSpeeds, the
// pre-oracle lower bound: on each workload's utilization trace, the hull
// schedule solves the end-deadline relaxation, so its energy must match —
// and can never undercut — the oracle of that same relaxed instance.
func TestZooOptSpeedsNeverBeatsOracle(t *testing.T) {
	for _, w := range expt.FigureWorkloads {
		out, err := expt.Run(expt.RunSpec{
			Workload: w, Seed: 1, Duration: 30 * sim.Second,
			InitialStep: cpu.MaxStep,
		})
		if err != nil {
			t.Fatal(err)
		}
		var util []float64
		for _, u := range out.Kernel.UtilLog() {
			util = append(util, float64(u.PP10K)/10000)
		}
		jobs := policy.OracleFromTrace(util, -1)
		sched, err := policy.OptimalSchedule(jobs)
		if err != nil {
			t.Fatal(err)
		}
		opt := sched.Energy()
		speeds, err := policy.OptSpeeds(util, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		res, err := policy.EvaluateSpeeds(util, speeds, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.Energy < opt-1e-6*(1+opt) {
			t.Errorf("%s: OptSpeeds energy %v undercuts the oracle's %v", w, res.Energy, opt)
		}
	}
}

// TestZooComparisonDeterministic pins the "deterministic optimality-gap
// table" half of the acceptance criterion: two uncached runs of the same
// environment must produce identical rows and an identical rendering.
func TestZooComparisonDeterministic(t *testing.T) {
	a, err := expt.ZooComparison(expt.DefaultEnv(1), clocksched.PolicyZoo(), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := expt.ZooComparison(expt.DefaultEnv(1), clocksched.PolicyZoo(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two zoo runs produced different rows")
	}
	ra, rb := expt.RenderZoo(a), expt.RenderZoo(b)
	if ra != rb {
		t.Fatal("two zoo runs rendered differently")
	}
	for _, name := range clocksched.RegisteredPolicies() {
		if !strings.Contains(ra, name) {
			t.Errorf("rendered table lacks registered policy %q", name)
		}
	}
}
