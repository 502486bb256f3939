package expt

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestPlayUntilExhaustion(t *testing.T) {
	rows, err := PlayUntilExhaustion(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Played <= 0 {
			t.Errorf("%s played nothing", r.Policy)
		}
		hours := r.Played.Seconds() / 3600
		if hours < 0.5 || hours > 12 {
			t.Errorf("%s playback %.2f h implausible for AAA cells", r.Policy, hours)
		}
	}
	// The lower-power policy plays at least as long.
	if rows[1].AvgPowerW < rows[0].AvgPowerW && rows[1].Played < rows[0].Played {
		t.Errorf("lower average power played less: %+v", rows)
	}
	if !strings.Contains(RenderExhaustion(rows), "playback") {
		t.Error("render missing header")
	}
}

func TestSA2Example(t *testing.T) {
	p := SA2Example()
	// The paper's arithmetic: 1 s and 500 mJ at 600 MHz; 4 s and 160 mJ
	// at 150 MHz.
	if p.FastTime != 1 || p.SlowTime != 4 {
		t.Errorf("times = %v, %v", p.FastTime, p.SlowTime)
	}
	if math.Abs(p.FastEnergy-0.5) > 1e-12 {
		t.Errorf("fast energy = %v, want 0.5 J", p.FastEnergy)
	}
	if math.Abs(p.SlowEnergy-0.16) > 1e-12 {
		t.Errorf("slow energy = %v, want 0.16 J", p.SlowEnergy)
	}
	// "a four-fold savings" (3.125× exactly, which the paper rounds).
	if ratio := p.FastEnergy / p.SlowEnergy; ratio < 3 || ratio > 4 {
		t.Errorf("energy ratio = %v", ratio)
	}
	if !strings.Contains(p.Render(), "600 MHz") {
		t.Error("render missing content")
	}
}
