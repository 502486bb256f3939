package metrics

import (
	"math/rand"
	"strings"
	"testing"

	"clocksched/internal/sim"
)

func TestDeadlineLate(t *testing.T) {
	d := Deadline{Due: 100, Done: 130}
	if d.Late() != 30 {
		t.Errorf("Late = %v", d.Late())
	}
	early := Deadline{Due: 100, Done: 80}
	if early.Late() != -20 {
		t.Errorf("early Late = %v", early.Late())
	}
}

func TestCollectorZeroValue(t *testing.T) {
	var c Collector
	if c.Count() != 0 || c.MissCount(0) != 0 || c.MaxLateness() != 0 || c.MissRate(0) != 0 {
		t.Error("zero-value collector not empty")
	}
}

func TestCollectorMisses(t *testing.T) {
	var c Collector
	c.Record("frame", 1, 100, 90)  // early
	c.Record("frame", 2, 200, 205) // 5 late
	c.Record("frame", 3, 300, 350) // 50 late
	if c.Count() != 3 {
		t.Fatalf("Count = %d", c.Count())
	}
	if got := c.MissCount(0); got != 2 {
		t.Errorf("MissCount(0) = %d, want 2", got)
	}
	if got := c.MissCount(10); got != 1 {
		t.Errorf("MissCount(10) = %d, want 1", got)
	}
	if got := c.MissCount(100); got != 0 {
		t.Errorf("MissCount(100) = %d, want 0", got)
	}
	if got := c.MaxLateness(); got != 50 {
		t.Errorf("MaxLateness = %v, want 50", got)
	}
	if got := c.MissRate(0); got != 2.0/3 {
		t.Errorf("MissRate = %v", got)
	}
	misses := c.Misses(0)
	if len(misses) != 2 || misses[0].Name() != "frame-2" {
		t.Errorf("Misses = %+v", misses)
	}
	if len(c.Late()) != 2 || c.CountFor("frame") != 3 {
		t.Errorf("Late() = %+v, CountFor(frame) = %d", c.Late(), c.CountFor("frame"))
	}
}

func TestCollectorSummary(t *testing.T) {
	var c Collector
	c.Record("x", 0, 100, 200)
	s := c.Summary(sim.Millisecond)
	if !strings.Contains(s, "1 deadlines") || !strings.Contains(s, "0 missed") {
		t.Errorf("Summary = %q", s)
	}
	s = c.Summary(0)
	if !strings.Contains(s, "1 missed") {
		t.Errorf("Summary = %q", s)
	}
}

func TestMaxLatenessFor(t *testing.T) {
	var c Collector
	c.Record("frame", 1, 100, 150) // 50 late
	c.Record("frame", 2, 200, 210) // 10 late
	c.Record("audio", 1, 100, 105) // 5 late
	if got := c.MaxLatenessFor("frame"); got != 50 {
		t.Errorf("MaxLatenessFor(frame) = %v, want 50", got)
	}
	if got := c.MaxLatenessFor("audio"); got != 5 {
		t.Errorf("MaxLatenessFor(audio) = %v, want 5", got)
	}
	if got := c.MaxLatenessFor(""); got != 50 {
		t.Errorf("MaxLatenessFor(all) = %v, want 50", got)
	}
	if got := c.MaxLatenessFor("nothing"); got != 0 {
		t.Errorf("MaxLatenessFor(miss) = %v, want 0", got)
	}
}

func TestDesync(t *testing.T) {
	var c Collector
	c.Record("frame", 1, 100, 180) // 80 late
	c.Record("audio", 1, 100, 110) // 10 late
	if got := c.Desync("frame", "audio"); got != 70 {
		t.Errorf("Desync = %v, want 70", got)
	}
	// Symmetric.
	if got := c.Desync("audio", "frame"); got != 70 {
		t.Errorf("Desync reversed = %v, want 70", got)
	}
	var empty Collector
	if empty.Desync("a", "b") != 0 {
		t.Error("empty collector desync nonzero")
	}
}

func TestDeadlineNames(t *testing.T) {
	var c Collector
	c.Record("frame", 12, 100, 200)
	c.RecordChunk("speech", 2, 0, 100, 200)
	c.RecordChunk("speech", 2, 7, 100, 200)
	var names []string
	for _, d := range c.Late() {
		names = append(names, d.Name())
	}
	if got := strings.Join(names, " "); got != "frame-12 speech-2-chunk-0 speech-2-chunk-7" {
		t.Errorf("names = %q", got)
	}
}

// TestCollectorMatchesFullRecord checks the tallying collector against a
// reference that keeps every record: counts, per-stream counts, misses at
// every non-negative slack, worst lateness and desync must all agree.
func TestCollectorMatchesFullRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	streams := []string{"frame", "audio", "speech"}
	for trial := 0; trial < 50; trial++ {
		var c Collector
		var all []Deadline
		observed := 0
		c.OnRecord = func(Deadline) { observed++ }
		for i := rng.Intn(200); i > 0; i-- {
			d := Deadline{Stream: streams[rng.Intn(len(streams))], Seq: i,
				Due: sim.Time(rng.Intn(1000)), Done: sim.Time(rng.Intn(1000))}
			c.Record(d.Stream, d.Seq, d.Due, d.Done)
			all = append(all, d)
		}
		if c.Count() != len(all) || observed != len(all) {
			t.Fatalf("Count = %d, observed %d, want %d", c.Count(), observed, len(all))
		}
		for _, slack := range []sim.Duration{0, 1, 50, 500} {
			want := 0
			for _, d := range all {
				if d.Late() > slack {
					want++
				}
			}
			if got := c.MissCount(slack); got != want || len(c.Misses(slack)) != want {
				t.Errorf("MissCount(%v) = %d, want %d", slack, got, want)
			}
		}
		worst := map[string]sim.Duration{}
		count := map[string]int{}
		for _, d := range all {
			count[d.Stream]++
			if l := d.Late(); l > worst[d.Stream] {
				worst[d.Stream] = l
			}
			if l := d.Late(); l > worst[""] {
				worst[""] = l
			}
		}
		for _, s := range append(streams, "") {
			if got := c.MaxLatenessFor(s); got != worst[s] {
				t.Errorf("MaxLatenessFor(%q) = %v, want %v", s, got, worst[s])
			}
			if s != "" && c.CountFor(s) != count[s] {
				t.Errorf("CountFor(%q) = %d, want %d", s, c.CountFor(s), count[s])
			}
		}
	}
}
