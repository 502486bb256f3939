package clocksched

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// TestTable2CellAllocBytes guards the streaming measurement path end to end,
// as internal/kernel's TestQuantumStepAllocs guards the quantum step: one
// 60 s MPEG cell of Table 2 through RunContext must allocate at most
// 128 KiB. The cell's power timeline, per-quantum utilization and deadline
// list are folded as the run goes; retaining any of them again costs
// hundreds of KiB per cell (0.49 MB when all three were kept) and fails
// here.
func TestTable2CellAllocBytes(t *testing.T) {
	const runs, limit = 4, 128 << 10
	cfg := Config{Workload: MPEG, Policy: PASTPegPeg(), Seed: 1, Duration: 60 * time.Second}
	run := func() {
		if _, err := RunContext(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm up lazily built tables
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if perCell := (after.TotalAlloc - before.TotalAlloc) / runs; perCell > limit {
		t.Errorf("a 60 s MPEG cell allocates %d KiB, want at most %d KiB", perCell>>10, limit>>10)
	}
}
