package metrics

import (
	"testing"

	"clocksched/internal/sim"
)

// raceEnabled is set in race-detector builds.
var raceEnabled bool

// TestCollectorRecordAllocs guards the online miss count: once a
// collector's streams exist, recording an early, a late or a missed
// deadline allocates nothing. Keeping the lateness of each late deadline
// grew a slice as the run went.
func TestCollectorRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	c := Collector{Slack: 10}
	c.Record("frame", 0, 100, 100)
	c.RecordChunk("speech", 0, 0, 100, 100)
	seq := 0
	for _, late := range []sim.Duration{-5, 5, 50} { // early, late, missed
		if n := testing.AllocsPerRun(100, func() {
			seq++
			c.Record("frame", seq, 100, sim.Time(100+late))
			c.RecordChunk("speech", seq, seq%4, 100, sim.Time(100+late))
		}); n != 0 {
			t.Errorf("recording a deadline %v late allocates %v times, want 0", late, n)
		}
	}
	if c.MissCount() != 2*101 {
		t.Errorf("MissCount() = %d, want %d", c.MissCount(), 2*101)
	}
}
