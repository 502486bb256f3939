package fleet

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"clocksched"
	"clocksched/internal/expt"
)

// DefaultExperimentDevices is the standing experiment's population size.
// The CLOCKSCHED_FLEET_DEVICES environment variable overrides it — tests
// shrink it, and fabric runs spanning several peers scale it up to 100k+.
const DefaultExperimentDevices = 10_000

// ExperimentDevices resolves the standing experiment's population size:
// CLOCKSCHED_FLEET_DEVICES when set and positive, DefaultExperimentDevices
// otherwise. cmd/experiments uses the same resolution for its local and
// -peers paths, so the two runs sweep the identical population.
func ExperimentDevices() int {
	if v := os.Getenv("CLOCKSCHED_FLEET_DEVICES"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return DefaultExperimentDevices
}

// ExperimentSpec is the standing experiment's scenario: the full
// registered policy zoo (default parameters) plus a pinned 59 MHz
// constant — the pairing the feasibility pre-pass exists to catch, since
// MPEG and the talking editor cannot fit at the bottom step — over the
// default population mix with staggered arrivals. cmd/experiments builds
// the identical spec for both local and -peers execution, which is what
// makes the two summaries byte-comparable.
func ExperimentSpec(seed uint64, devices int) (Spec, error) {
	spec := NewSpec(devices, seed)
	spec.Duration = clocksched.Duration(2 * time.Second)
	spec.ArrivalSpread = clocksched.Duration(500 * time.Millisecond)
	for _, name := range clocksched.RegisteredPolicies() {
		p, err := clocksched.NewPolicy(name, nil)
		if err != nil {
			return Spec{}, fmt.Errorf("fleet: building zoo policy %q: %w", name, err)
		}
		spec.Policies = append(spec.Policies, p)
	}
	low, err := clocksched.NewPolicy("constant", map[string]float64{"mhz": 59, "low_voltage": 1})
	if err != nil {
		return Spec{}, fmt.Errorf("fleet: building low constant: %w", err)
	}
	spec.Policies = append(spec.Policies, low)
	return spec, nil
}

// Experiment is the standing fleet experiment's catalogue entry.
// cmd/experiments lists it after expt.Registry's entries.
func Experiment() expt.Experiment {
	return expt.Experiment{
		Name:  "fleet",
		Paper: "population-scale sweep: the policy zoo across a simulated device fleet",
		Run:   runExperiment,
	}
}

// runExperiment runs ExperimentSpec over ExperimentDevices locally and
// renders the population summary to fleet.txt.
func runExperiment(env expt.Env) (string, []expt.Artifact, error) {
	spec, err := ExperimentSpec(env.Seed, ExperimentDevices())
	if err != nil {
		return "", nil, err
	}
	// The fleet's cells share the run's cell cache and journal with the
	// grid experiments (their keys are disjoint), so a killed run resumes
	// the fleet like any grid. The journal is never truncated here: the
	// caller starts each run's journal once, fresh or resumed.
	cfg := clocksched.SweepConfig{
		Workers:     env.Workers,
		Cache:       env.Cache,
		Journal:     env.Journal,
		Resume:      env.Journal != "",
		CellTimeout: env.CellTimeout,
		Retries:     env.Retries,
		Progress:    env.Progress,
		Telemetry:   clocksched.TelemetryOver(env.Telemetry),
	}
	pop, err := Run(env.Ctx, spec, cfg)
	if err != nil {
		return "", nil, err
	}
	text := pop.Render()
	return text, []expt.Artifact{{Name: "fleet.txt", Content: text}}, nil
}
