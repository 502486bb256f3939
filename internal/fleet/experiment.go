package fleet

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"clocksched"
)

// DefaultExperimentDevices is the standing experiment's population size.
// The CLOCKSCHED_FLEET_DEVICES environment variable overrides it — tests
// shrink it, and fabric runs spanning several peers scale it up to 100k+.
const DefaultExperimentDevices = 10_000

// ExperimentDevices resolves the standing experiment's population size:
// CLOCKSCHED_FLEET_DEVICES when set and positive, DefaultExperimentDevices
// otherwise. The fleet experiment (internal/grids) uses it for its local
// and -peers runs, so the two runs sweep the identical population.
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
// default population mix with staggered arrivals. The fleet experiment
// builds the identical spec for both local and -peers execution, which is
// what makes the two summaries byte-comparable.
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
