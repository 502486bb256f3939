package expt

import (
	"context"
	"strings"
	"testing"

	"clocksched/internal/cpu"
)

func TestPeringTradeoffShape(t *testing.T) {
	rows, err := PeringTradeoff(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != cpu.NumSteps {
		t.Fatalf("%d rows", len(rows))
	}
	// At the slow end the drop-tolerant player sheds frames; at and above
	// 132.7 MHz it shows them all.
	if rows[0].DropRate <= 0.1 {
		t.Errorf("drop rate at 59MHz = %.2f, want substantial", rows[0].DropRate)
	}
	for i := 5; i < len(rows); i++ { // 132.7 MHz and up
		if rows[i].DropRate != 0 {
			t.Errorf("drop rate at %v = %.3f, want 0", rows[i].Step, rows[i].DropRate)
		}
		if rows[i].FrameRate < 14.9 {
			t.Errorf("frame rate at %v = %.1f, want ≈15", rows[i].Step, rows[i].FrameRate)
		}
	}
	// Frame rate never decreases with clock speed.
	for i := 1; i < len(rows); i++ {
		if rows[i].FrameRate < rows[i-1].FrameRate-0.2 {
			t.Errorf("frame rate fell from %v to %v", rows[i-1].Step, rows[i].Step)
		}
	}
	// The elastic metric's seduction: the slowest setting uses the least
	// energy — by sacrificing most of the video.
	if rows[0].EnergyJ >= rows[len(rows)-1].EnergyJ {
		t.Errorf("slow end energy %.2f not below fast end %.2f",
			rows[0].EnergyJ, rows[len(rows)-1].EnergyJ)
	}
	text := RenderPeringTradeoff(rows)
	if !strings.Contains(text, "frames/s") {
		t.Error("render missing header")
	}
}
