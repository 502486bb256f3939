package daq

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"clocksched/internal/cpu"
	"clocksched/internal/fault"
	"clocksched/internal/power"
	"clocksched/internal/sim"
)

// segment is one piece of a piecewise-constant power timeline.
type segment struct {
	from, to sim.Time
	watts    float64
}

// streamCoverage counts the edge cases a stream check ran into.
type streamCoverage struct {
	collapses  int // same-instant revisions that collapsed into the predecessor
	pastEnd    int // change-points at or after the capture window's end
	unaligned  int // windows that are not a whole number of readings
	lateStream int // recorders switched to streaming mid-run
}

// byteSource reads a fuzz input one byte at a time, yielding zeros once it
// is exhausted.
type byteSource []byte

func (s *byteSource) next() int {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b)
}

// checkStreamMatchesRetained decodes a timeline, a capture window and a
// sample interval from data and records the timeline twice: retained, then
// measured post hoc by Integrate, and streamed into a Fold. The streamed
// segments must be exactly the retained timeline's, and the two summaries
// must be equal with ==, not within a tolerance.
func checkStreamMatchesRetained(t testing.TB, data []byte, cov *streamCoverage) {
	src := byteSource(data)
	cfg := DefaultConfig()
	cfg.SampleInterval = sim.Duration(1 + src.next()<<8 | src.next())
	streamAfter := src.next()
	winStart, winEnd := src.next(), src.next()

	// Change-points: a zero step revises the previous instant, and the few
	// power levels (including zero and beyond full scale) make revisions
	// that restore the predecessor's level — and so collapse — common.
	levels := []float64{0, 0.4, 1.25, 1.25, 3.1, 8, 9.5}
	type change struct {
		at    sim.Time
		watts float64
	}
	var changes []change
	at := sim.Time(0)
	for len(src) > 0 {
		if step := src.next(); step%4 != 0 {
			at += sim.Time(step) * 37
		}
		changes = append(changes, change{at, levels[src.next()%len(levels)]})
	}
	recEnd := at + 1 + sim.Time(winEnd)*53
	start := recEnd * sim.Time(winStart) / 256
	end := start + 1 + (recEnd-start-1)*sim.Time(winEnd)/255

	init := power.State{Step: cpu.MaxStep, V: cpu.VHigh, Mode: power.ModeActive}
	kept := power.NewRecorder(power.DefaultModel(), init)
	streamed := power.NewRecorder(power.DefaultModel(), init)
	fold, err := NewFold(start, end, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got []segment
	sink := func(from, to sim.Time, w float64) {
		got = append(got, segment{from, to, w})
		fold.Add(from, to, w)
	}
	streamAfter %= len(changes) + 1
	if streamAfter > 0 {
		cov.lateStream++
	}
	for i, c := range changes {
		if i == streamAfter {
			if err := streamed.Stream(sink); err != nil {
				t.Fatal(err)
			}
		}
		before, _ := kept.Points()
		n := len(before)
		if err := kept.SetWatts(c.at, c.watts); err != nil {
			t.Fatal(err)
		}
		if err := streamed.SetWatts(c.at, c.watts); err != nil {
			t.Fatal(err)
		}
		if after, _ := kept.Points(); len(after) < n {
			cov.collapses++
		}
	}
	if streamAfter == len(changes) {
		if err := streamed.Stream(sink); err != nil {
			t.Fatal(err)
		}
	}
	if err := kept.Finish(recEnd); err != nil {
		t.Fatal(err)
	}
	if err := streamed.Finish(recEnd); err != nil {
		t.Fatal(err)
	}

	points, err := kept.Points()
	if err != nil {
		t.Fatal(err)
	}
	var want []segment
	for i, p := range points {
		to := recEnd
		if i+1 < len(points) {
			to = points[i+1].At
		}
		want = append(want, segment{p.At, to, p.Watts})
		if p.At >= end {
			cov.pastEnd++
		}
	}
	if (end-start)%cfg.SampleInterval != 0 {
		cov.unaligned++
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed segments differ from the retained timeline:\n got %v\nwant %v", got, want)
	}
	if _, err := streamed.Points(); !errors.Is(err, power.ErrStreamed) {
		t.Fatalf("Points on a streamed recorder: err %v, want ErrStreamed", err)
	}

	wantSum, err := Integrate(kept, start, end, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gotSum, err := fold.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if gotSum != wantSum {
		t.Fatalf("window [%v,%v) @%v: fold %+v, integrate %+v", start, end, cfg.SampleInterval, gotSum, wantSum)
	}
}

// TestRecorderStreamMatchesRetained runs the stream check on random
// timelines and requires that it met every edge case along the way.
func TestRecorderStreamMatchesRetained(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var cov streamCoverage
	for trial := 0; trial < 500; trial++ {
		data := make([]byte, 5+rng.Intn(120))
		rng.Read(data)
		checkStreamMatchesRetained(t, data, &cov)
	}
	if cov.collapses == 0 || cov.pastEnd == 0 || cov.unaligned == 0 || cov.lateStream == 0 {
		t.Errorf("random timelines missed an edge case: %+v", cov)
	}
}

func FuzzRecorderStream(f *testing.F) {
	// Zero steps (byte%4 == 0) revise an instant; the first input's
	// revision restores the predecessor's level and collapses the point.
	f.Add([]byte{1, 44, 0, 0, 200, 1, 1, 1, 2, 0, 1, 8, 5})
	f.Add([]byte{0, 200, 3, 128, 64, 2, 5, 2, 6, 4, 0, 9, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkStreamMatchesRetained(t, data, &streamCoverage{})
	})
}

// TestFoldRefusesSampleFaultsAndShortTimelines pins the Fold's structured
// errors: a faulty instrument needs the per-sample walk, and a summary of a
// timeline that stops short of the window is refused rather than reported.
func TestFoldRefusesSampleFaultsAndShortTimelines(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := NewFold(10, 10, cfg); err == nil {
		t.Error("empty window accepted")
	}
	for _, tc := range []struct {
		plan   fault.Plan
		refuse bool
	}{
		{fault.Plan{SampleDropProb: 0.1}, true},
		{fault.Plan{SampleGlitchProb: 0.1}, true},
		{fault.Plan{ClockChangeFailProb: 0.1}, false},
	} {
		inj, err := fault.NewInjector(&tc.plan, 1)
		if err != nil {
			t.Fatal(err)
		}
		faulty := cfg
		faulty.Faults = inj
		if _, err := NewFold(0, sim.Second, faulty); (err != nil) != tc.refuse {
			t.Errorf("plan %+v: NewFold err %v, want refusal %v", tc.plan, err, tc.refuse)
		}
	}
	fold, err := NewFold(0, sim.Second, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fold.Add(0, sim.Second/2, 1)
	if _, err := fold.Summary(); err == nil {
		t.Error("summary of a half-covered window accepted")
	}
}
