package expt

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"clocksched/internal/cpu"
	"clocksched/internal/sim"
)

// countdownCtx is a context whose deadline "expires" after its Err has been
// polled n times — a deterministic stand-in for a wall-clock deadline that
// runs out mid-simulation, since RunContext polls Err at every quantum
// boundary.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Done() <-chan struct{} {
	// Non-nil so RunContext wires Err into the kernel's cancel hook; never
	// closed, matching a deadline observed only by polling.
	return make(chan struct{})
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, true }

// TestRunContextDeadlineStopsAtQuantumBoundary pins the deadline semantics:
// a context that expires mid-run aborts the simulation at the next quantum
// boundary — never mid-quantum — and the returned error wraps
// context.DeadlineExceeded through the kernel's cancellation chain.
func TestRunContextDeadlineStopsAtQuantumBoundary(t *testing.T) {
	const surviveTicks = 5
	ctx := newCountdownCtx(surviveTicks)
	_, err := RunContext(ctx, RunSpec{
		Workload:    "rect",
		Duration:    2 * sim.Second,
		InitialStep: cpu.MaxStep,
	})
	if err == nil {
		t.Fatal("expired deadline ran to completion")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want a wrapped context.DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "quantum boundary") {
		t.Errorf("err %q does not name the quantum-boundary abort point", err)
	}
}

// TestRunContextDeadlineBeforeStart covers the trivial path: a context
// already expired never starts the simulation.
func TestRunContextDeadlineBeforeStart(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := RunContext(ctx, RunSpec{Workload: "rect", Duration: sim.Second})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestRunContextAttemptSaltsOnlyAbortStream pins the retry contract the
// sweep layer depends on: the attempt number in RunSpec.Attempt must not
// change a successful run's results (attempt salts only the fault
// injector's cell-abort schedule).
func TestRunContextAttemptSaltsOnlyAbortStream(t *testing.T) {
	spec := RunSpec{Workload: "rect", Duration: 2 * sim.Second, InitialStep: cpu.MaxStep}
	base, err := RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Attempt = 3
	retry, err := RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if base.DAQ.EnergyJ != retry.DAQ.EnergyJ || base.Kernel.MeanUtil() != retry.Kernel.MeanUtil() {
		t.Errorf("attempt changed a fault-free run: energy %v vs %v, util %v vs %v",
			base.DAQ.EnergyJ, retry.DAQ.EnergyJ, base.Kernel.MeanUtil(), retry.Kernel.MeanUtil())
	}
}
