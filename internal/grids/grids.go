// Package grids holds the experiments that are sweeps. Each one is a list
// of clocksched.Config cells, built from the run seed, and a fold of the
// completed clocksched.SweepResult into its summary and artifacts. The one
// clocksched.Sweep runs them: locally under an expt.Env (Run), or across
// sweepd peers through the fabric (cmd/experiments -peers). A cell's
// identity is therefore its Config: its cache key is the sweep's, derived
// from every field that determines the measurement, so a change to a spec
// always changes its key, and local and peer runs share cache entries.
//
// The package sits above the root clocksched package, which sits above
// expt: the row types and renderers stay in expt, the cells and folds live
// here.
package grids

import (
	"clocksched"
	"clocksched/internal/expt"
)

// Fold reduces a completed sweep, its cells in the order the experiment's
// SweepConfig lists them, to the console summary and the artifacts. tel is
// the run's telemetry (nil when the run has none); a fold may count into
// it.
type Fold func(res *clocksched.SweepResult, tel *clocksched.Telemetry) (summary string, artifacts []expt.Artifact, err error)

// Experiment is one sweep-shaped experiment.
type Experiment struct {
	// Name is the key used by cmd/experiments -only.
	Name string
	// Paper says what the experiment reproduces.
	Paper string
	// Plan builds the experiment's sweep for a run seed, and the fold of
	// its result. The SweepConfig names the cells and whether the first
	// failure aborts the sweep (FailFast); the runner fills in the
	// execution resources.
	Plan func(seed uint64) (clocksched.SweepConfig, Fold, error)
}

// Local is the experiment's catalogue entry: Plan, Run under the given
// environment, then the fold.
func (e Experiment) Local() expt.Experiment {
	return expt.Experiment{Name: e.Name, Paper: e.Paper, Run: func(env expt.Env) (string, []expt.Artifact, error) {
		cfg, fold, err := e.Plan(env.Seed)
		if err != nil {
			return "", nil, err
		}
		res, err := Run(env, cfg)
		if err != nil {
			return "", nil, err
		}
		return fold(res, clocksched.TelemetryOver(env.Telemetry))
	}}
}

// Empty reports whether cfg names no cell at all: no explicit cells and no
// axis. Such a config must not reach Sweep, which would run the axis grid's
// one default cell; its result is the empty SweepResult.
func Empty(cfg clocksched.SweepConfig) bool {
	return len(cfg.Cells) == 0 && len(cfg.Workloads) == 0 && len(cfg.Policies) == 0 && len(cfg.Seeds) == 0
}

// Run sweeps cfg under env's execution resources: its workers, the run's
// one cell cache and journal (reopened with resume; the caller starts each
// run's journal once, fresh or resumed), the per-cell timeout and retry
// budget, progress and telemetry. These change how fast the cells run,
// never what they measure. An empty cfg runs nothing.
func Run(env expt.Env, cfg clocksched.SweepConfig) (*clocksched.SweepResult, error) {
	if Empty(cfg) {
		return &clocksched.SweepResult{}, nil
	}
	cfg.Workers = env.Workers
	cfg.Cache = env.Cache
	cfg.Journal = env.Journal
	cfg.Resume = env.Journal != ""
	cfg.CellTimeout = env.CellTimeout
	cfg.Retries = env.Retries
	cfg.Progress = env.Progress
	cfg.Telemetry = clocksched.TelemetryOver(env.Telemetry)
	return clocksched.Sweep(env.Context(), cfg)
}

// sweeps lists every sweep-shaped experiment, in catalogue order.
func sweeps() []Experiment {
	return []Experiment{figure3, figure4, figure8, figure9, table2, deadline, playback, sensitivity, weiser, zoo, fleetExperiment}
}

// Find returns the named sweep-shaped experiment.
func Find(name string) (Experiment, bool) {
	for _, e := range sweeps() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// catalogueOrder is the run order: the paper's tables and figures as it
// presents them, then the extensions, then the zoo and the fleet.
var catalogueOrder = []string{
	"figure3", "figure4", "figure5", "table1", "figure6", "figure7",
	"figure8", "figure9", "table2", "table3", "battery", "transitions",
	"overhead", "deadline", "martin", "pering", "playback", "sensitivity",
	"exhaustion", "sa2", "dvs", "weiser", "zoo", "fleet",
}

// Catalogue lists every experiment in run order: expt.Registry's entries
// and this package's sweeps, each in its place.
func Catalogue() []expt.Experiment {
	local := expt.Registry()
	out := make([]expt.Experiment, 0, len(catalogueOrder))
	for _, name := range catalogueOrder {
		if g, ok := Find(name); ok {
			out = append(out, g.Local())
		} else if e, ok := expt.Find(local, name); ok {
			out = append(out, e)
		}
	}
	return out
}

// textArtifact is the summary written as the experiment's one artifact.
func textArtifact(name, text string) (string, []expt.Artifact, error) {
	return text, []expt.Artifact{{Name: name, Content: text}}, nil
}
