package expt

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"clocksched/internal/cpu"
	"clocksched/internal/fault"
	"clocksched/internal/kernel"
	"clocksched/internal/policy"
	"clocksched/internal/sim"
)

// TestStreamedRunMatchesRetained checks that measuring a run online gives
// the same digest, bit for bit, as retaining its records and reducing them
// afterwards — across every workload, with and without a policy, under a
// watchdog, and under a fault plan that mixes kernel and DAQ faults, whose
// sample faults the streamed run's fold draws after the run.
func TestStreamedRunMatchesRetained(t *testing.T) {
	policies := map[string]func() kernel.SpeedPolicy{
		"none": func() kernel.SpeedPolicy { return nil },
		"past-peg-peg": func() kernel.SpeedPolicy {
			return policy.MustGovernor(policy.NewPAST(), policy.Peg{}, policy.Peg{}, policy.BestBounds, false)
		},
		"deadline": func() kernel.SpeedPolicy { return policy.NewDeadlineScheduler() },
	}
	plans := map[string]*fault.Plan{
		"clean":      nil,
		"clockfail":  {ClockChangeFailProb: 0.05, TimerJitterProb: 0.05},
		"daq-faults": {ClockChangeFailProb: 0.05, SampleDropProb: 0.01, SampleGlitchProb: 0.01},
	}
	for _, w := range []string{"mpeg", "web", "chess", "editor", "rect", "feedback"} {
		for pname, pol := range policies {
			for fname, plan := range plans {
				spec := func(stream bool) RunSpec {
					s := RunSpec{Workload: w, Seed: 3, Duration: 5 * sim.Second, Policy: pol(),
						InitialStep: cpu.MaxStep, Faults: plan, Stream: stream}
					if pname == "past-peg-peg" {
						s.Watchdog = &policy.WatchdogConfig{}
					}
					return s
				}
				t.Run(fmt.Sprintf("%s/%s/%s", w, pname, fname), func(t *testing.T) {
					kept, err := RunContext(context.Background(), spec(false))
					if err != nil {
						t.Fatal(err)
					}
					streamed, err := RunContext(context.Background(), spec(true))
					if err != nil {
						t.Fatal(err)
					}
					a, b := digest(kept), digest(streamed)
					if a != b {
						t.Errorf("digests differ:\nretained %s\nstreamed %s", a, b)
					}
					if len(streamed.Kernel.UtilLog()) != 0 {
						t.Error("streamed run retained its utilization log")
					}
				})
			}
		}
	}
}

// digestStreams names every deadline stream the workloads record.
var digestStreams = []string{"frame", "audio", "speech", "ui", "open", "scroll", "back", "reply", "loop", "spike"}

// digest prints every figure a run reports, with floats in full precision.
func digest(out *RunOutcome) string {
	col := out.Workload.Metrics()
	d := out.DAQ
	var streams strings.Builder
	for _, s := range digestStreams {
		if n := col.CountFor(s); n > 0 {
			fmt.Fprintf(&streams, " %s=%d/%d", s, n, col.MaxLatenessFor(s))
		}
	}
	return fmt.Sprintf("U=%b daq=%d/%b/%b/%b faults=%+v deadlines=%d misses=%d max=%d%s speed=%d/%d",
		out.Kernel.MeanUtil(), d.Samples, d.EnergyJ, d.AvgPowerW, d.PeakW, out.Faults,
		col.Count(), col.MissCount(), col.MaxLateness(), streams.String(),
		out.Kernel.SpeedChanges(), out.Kernel.Quanta())
}
