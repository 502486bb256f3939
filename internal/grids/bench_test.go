package grids

// One benchmark per sweep-shaped table and figure, each regenerating its
// result from scratch on one worker with no cache: the sweep, then the
// fold. The other experiments' benchmarks are in the root package's
// bench_test.go, which cannot import this package (it imports the root).
// Run with:
//
//	go test -bench=. -benchmem ./internal/grids/

import (
	"testing"

	"clocksched/internal/expt"
)

// benchExperiment runs the named experiment b.N times.
func benchExperiment(b *testing.B, name string) {
	e, ok := Find(name)
	if !ok {
		b.Fatalf("no sweep-shaped experiment %q", name)
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Local().Run(expt.DefaultEnv(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3(b *testing.B)              { benchExperiment(b, "figure3") }
func BenchmarkFigure4(b *testing.B)              { benchExperiment(b, "figure4") }
func BenchmarkFigure8(b *testing.B)              { benchExperiment(b, "figure8") }
func BenchmarkFigure9(b *testing.B)              { benchExperiment(b, "figure9") }
func BenchmarkTable2(b *testing.B)               { benchExperiment(b, "table2") }
func BenchmarkDeadlineComparison(b *testing.B)   { benchExperiment(b, "deadline") }
func BenchmarkPlaybackLifetime(b *testing.B)     { benchExperiment(b, "playback") }
func BenchmarkThresholdSensitivity(b *testing.B) { benchExperiment(b, "sensitivity") }
func BenchmarkWeiserOnWorkloads(b *testing.B)    { benchExperiment(b, "weiser") }
