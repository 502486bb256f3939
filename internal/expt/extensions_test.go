package expt

import (
	"strings"
	"testing"

	"clocksched/internal/cpu"
)

func TestMartinOptimumInterior(t *testing.T) {
	res, err := MartinOptimum(2.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != cpu.NumSteps {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// With a heavy-load exponent the optimum is interior: Martin's
	// "lower bound on clock frequency".
	if res.Best == cpu.MinStep || res.Best == cpu.MaxStep {
		t.Errorf("optimum at %v; want an interior step", res.Best)
	}
	// Lifetime decreases with clock speed throughout.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].LifetimeH >= res.Rows[i-1].LifetimeH {
			t.Errorf("lifetime not decreasing at %v", res.Rows[i].Step)
		}
	}
	if !strings.Contains(res.Render(), "optimum") {
		t.Error("render missing optimum marker")
	}
}

func TestMartinOptimumLimits(t *testing.T) {
	// A nearly ideal battery (k→1) favours the fastest clock: capacity
	// barely shrinks, so more cycles per hour wins.
	ideal, err := MartinOptimum(1.05)
	if err != nil {
		t.Fatal(err)
	}
	if ideal.Best != cpu.MaxStep {
		t.Errorf("k=1.05 optimum at %v, want the fastest step", ideal.Best)
	}
	// A brutal rate-capacity effect favours the slowest clock.
	steep, err := MartinOptimum(4.0)
	if err != nil {
		t.Fatal(err)
	}
	if steep.Best != cpu.MinStep {
		t.Errorf("k=4 optimum at %v, want the slowest step", steep.Best)
	}
}

func TestMartinOptimumValidation(t *testing.T) {
	if _, err := MartinOptimum(0.5); err == nil {
		t.Error("exponent below 1 accepted")
	}
}
