package kernel

import (
	"strings"
	"testing"

	"clocksched/internal/cpu"
	"clocksched/internal/sim"
)

func TestAnalyzeLogIdleOnly(t *testing.T) {
	_, k := newKernel(t, DefaultConfig())
	if err := k.Run(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	st := k.AnalyzeLog()
	if st.Decisions == 0 {
		t.Fatal("no decisions logged")
	}
	if st.IdleDecisions != st.Decisions {
		t.Errorf("idle system logged %d idle of %d decisions", st.IdleDecisions, st.Decisions)
	}
	if len(st.RatesSeen) != 1 || st.RatesSeen[0] != cpu.MaxStep.KHz() {
		t.Errorf("rates seen = %v", st.RatesSeen)
	}
	if len(st.Shares) != 0 {
		t.Errorf("idle system has %d process shares", len(st.Shares))
	}
}

func TestAnalyzeLogTwoProcesses(t *testing.T) {
	_, k := newKernel(t, DefaultConfig())
	a, _ := k.Spawn(busyLoop{burst: cpu.Burst{Core: 500_000}})
	b, _ := k.Spawn(busyLoop{burst: cpu.Burst{Core: 500_000}})
	if err := k.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	st := k.AnalyzeLog()
	if len(st.Shares) != 2 {
		t.Fatalf("%d shares", len(st.Shares))
	}
	if st.Shares[0].PID != a.PID() || st.Shares[1].PID != b.PID() {
		t.Errorf("shares out of pid order: %+v", st.Shares)
	}
	for _, sh := range st.Shares {
		if sh.Decisions == 0 || sh.CPUTime == 0 || sh.Name != "busy" {
			t.Errorf("share incomplete: %+v", sh)
		}
	}
	// Round-robin between two runnables switches pids constantly.
	if st.Switches < 90 {
		t.Errorf("only %d switches over 100 quanta", st.Switches)
	}
	if st.IdleDecisions != 0 {
		t.Errorf("idle picked %d times with two busy loops", st.IdleDecisions)
	}
}

func TestAnalyzeLogSeesRateChanges(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = &stepPolicy{to: cpu.MinStep, v: cpu.VHigh}
	_, k := newKernel(t, cfg)
	k.Spawn(busyLoop{burst: cpu.Burst{Core: 500_000}})
	if err := k.Run(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	st := k.AnalyzeLog()
	if len(st.RatesSeen) != 2 {
		t.Errorf("rates seen = %v, want both 59MHz and 206.4MHz", st.RatesSeen)
	}
	text := st.Render()
	if !strings.Contains(text, "59.0MHz") || !strings.Contains(text, "206.4MHz") {
		t.Errorf("render = %q", text)
	}
	if !strings.Contains(text, "busy") {
		t.Error("render missing process name")
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
