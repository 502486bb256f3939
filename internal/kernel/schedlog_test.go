package kernel

import (
	"testing"

	"clocksched/internal/cpu"
	"clocksched/internal/sim"
)

// The two TestAnalyzeLog tests check the scheduler log's running totals.

func TestAnalyzeLogIdleOnly(t *testing.T) {
	_, k := newKernel(t, DefaultConfig())
	if err := k.Run(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	decisions, idle, _ := k.LogTotals()
	if decisions == 0 {
		t.Fatal("no decisions logged")
	}
	if idle != decisions {
		t.Errorf("idle system logged %d idle of %d decisions", idle, decisions)
	}
}

func TestAnalyzeLogTwoProcesses(t *testing.T) {
	_, k := newKernel(t, DefaultConfig())
	k.Spawn(busyLoop{burst: cpu.Burst{Core: 500_000}})
	k.Spawn(busyLoop{burst: cpu.Burst{Core: 500_000}})
	if err := k.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	_, idle, switches := k.LogTotals()
	// Round-robin between two runnables switches pids constantly.
	if switches < 90 {
		t.Errorf("only %d switches over 100 quanta", switches)
	}
	if idle != 0 {
		t.Errorf("idle picked %d times with two busy loops", idle)
	}
}

func TestSchedLogCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SchedLogCap = 25
	_, k := newKernel(t, cfg)
	k.Spawn(busyLoop{burst: cpu.Burst{Core: 500_000}})
	if err := k.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(k.SchedLog()); got != 25 {
		t.Errorf("log has %d entries, want capped at 25", got)
	}
	// Scheduling itself is unaffected: the process still ran the whole
	// second.
	if got := k.Processes()[0].CPUTime(); got < sim.Second-20*sim.Millisecond {
		t.Errorf("capped log disturbed scheduling: CPU time %v", got)
	}
	// Utilization accounting is independent of the log cap.
	if got := k.Quanta(); got != 100 {
		t.Errorf("kernel counted %d quanta", got)
	}
}
