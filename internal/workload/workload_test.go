package workload

import (
	"testing"

	"clocksched/internal/cpu"
	"clocksched/internal/kernel"
	"clocksched/internal/sim"
	"clocksched/internal/trace"
)

// runAt installs w into a fresh kernel at a fixed clock step and runs it
// for the given duration (the workload's own duration if zero).
func runAt(t *testing.T, w Workload, step cpu.Step, length sim.Duration) *kernel.Kernel {
	t.Helper()
	eng := &sim.Engine{}
	cfg := kernel.DefaultConfig()
	cfg.InitialStep = step
	cfg.RetainUtilLog = true
	k, err := kernel.New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Install(k); err != nil {
		t.Fatal(err)
	}
	if length == 0 {
		length = w.Duration()
	}
	if err := k.Run(length); err != nil {
		t.Fatal(err)
	}
	return k
}

// frameSlack is the perceptual slack for MPEG frames: half a frame period.
const frameSlack = 33 * sim.Millisecond

func TestMPEGConfigValidation(t *testing.T) {
	bad := []func(c *MPEGConfig){
		func(c *MPEGConfig) { c.FPS = 0 },
		func(c *MPEGConfig) { c.FPS = 100 },
		func(c *MPEGConfig) { c.Length = 0 },
		func(c *MPEGConfig) { c.FrameBurst = cpu.Burst{} },
		func(c *MPEGConfig) { c.GOPLength = 0 },
		func(c *MPEGConfig) { c.IFrameFactor = 0 },
		func(c *MPEGConfig) { c.PJitter = 1 },
		func(c *MPEGConfig) { c.SpinThreshold = -1 },
	}
	for i, mutate := range bad {
		c := DefaultMPEGConfig()
		mutate(&c)
		if _, err := NewMPEG(c); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := NewMPEG(DefaultMPEGConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestMPEGAtFullSpeedMeetsDeadlines(t *testing.T) {
	cfg := DefaultMPEGConfig()
	cfg.Length = 20 * sim.Second
	m, _ := NewMPEG(cfg)
	m.Metrics().Slack = frameSlack
	k := runAt(t, m, cpu.MaxStep, 0)

	if got := m.Metrics().MissCount(); got != 0 {
		t.Errorf("missed %d deadlines at 206.4MHz; max lateness %v", got, m.Metrics().MaxLateness())
	}
	// 15 fps for 20 s: 300 frames (the last may be cut off by the run
	// end) plus audio chunks.
	frames := m.Metrics().CountFor("frame")
	if frames < 295 || frames > 300 {
		t.Errorf("rendered %d frames, want ≈300", frames)
	}
	// Figure 9: utilization ≈ 70-78% at 206.4 MHz.
	if u := k.MeanUtil(); u < 0.62 || u > 0.82 {
		t.Errorf("utilization at 206.4MHz = %.3f, want ≈0.70-0.75", u)
	}
}

func TestMPEGAt132MeetsDeadlinesWithHighUtilization(t *testing.T) {
	cfg := DefaultMPEGConfig()
	cfg.Length = 20 * sim.Second
	m, _ := NewMPEG(cfg)
	m.Metrics().Slack = frameSlack
	k := runAt(t, m, cpu.Step(5), 0) // 132.7 MHz

	if got := m.Metrics().MissCount(); got != 0 {
		t.Errorf("missed %d deadlines at 132.7MHz (the paper's sweet spot)", got)
	}
	// Figure 9: utilization ≈ 87-95% at 132.7 MHz.
	if u := k.MeanUtil(); u < 0.85 || u > 0.99 {
		t.Errorf("utilization at 132.7MHz = %.3f, want ≈0.9", u)
	}
}

func TestMPEGTooSlowMissesFrames(t *testing.T) {
	cfg := DefaultMPEGConfig()
	cfg.Length = 20 * sim.Second
	m, _ := NewMPEG(cfg)
	m.Metrics().Slack = frameSlack
	runAt(t, m, cpu.Step(3), 0) // 103.2 MHz: cannot keep up

	if got := m.Metrics().MissCount(); got == 0 {
		t.Error("no deadline misses at 103.2MHz; the clip must not fit")
	}
}

func TestMPEGFrameTakesAboutSevenQuanta(t *testing.T) {
	// "Each frame is rendered in 67ms or just under 7 scheduling quanta"
	// — at 206.4 MHz decode takes 4-5 of those quanta busy.
	cfg := DefaultMPEGConfig()
	cfg.Length = 5 * sim.Second
	cfg.PJitter = 0
	m, _ := NewMPEG(cfg)
	k := runAt(t, m, cpu.MaxStep, 0)
	procs := k.Processes()
	video := procs[0]
	frames := float64(5 * 15)
	perFrame := float64(video.CPUTime()) / frames
	if perFrame < 38000 || perFrame > 55000 {
		t.Errorf("decode time per frame = %.0fµs, want ≈43-50ms", perFrame)
	}
}

func TestMPEGUtilizationPlateau(t *testing.T) {
	// Figure 9: utilization barely changes from 162.2 to 176.9 MHz.
	util := func(step cpu.Step) float64 {
		cfg := DefaultMPEGConfig()
		cfg.Length = 15 * sim.Second
		m, _ := NewMPEG(cfg)
		return runAt(t, m, step, 0).MeanUtil()
	}
	u7 := util(cpu.Step(7))
	u8 := util(cpu.Step(8))
	if diff := u7 - u8; diff > 0.02 || diff < -0.03 {
		t.Errorf("utilization 162.2MHz=%.3f vs 176.9MHz=%.3f: plateau missing", u7, u8)
	}
	// And a clear drop exists from 132.7 to 206.4 overall.
	u5 := util(cpu.Step(5))
	u10 := util(cpu.Step(10))
	if u5-u10 < 0.1 {
		t.Errorf("utilization 132.7MHz=%.3f vs 206.4MHz=%.3f: spread too small", u5, u10)
	}
}

func TestMPEGDeterministicAcrossRuns(t *testing.T) {
	run := func() sim.Duration {
		cfg := DefaultMPEGConfig()
		cfg.Length = 5 * sim.Second
		m, _ := NewMPEG(cfg)
		k := runAt(t, m, cpu.MaxStep, 0)
		return k.Processes()[0].CPUTime()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("two identical runs differ: %v vs %v", a, b)
	}
}

func TestMPEGReinstallFails(t *testing.T) {
	m, _ := NewMPEG(DefaultMPEGConfig())
	eng := &sim.Engine{}
	k, _ := kernel.New(eng, kernel.DefaultConfig())
	if err := m.Install(k); err != nil {
		t.Fatal(err)
	}
	if err := m.Install(k); err == nil {
		t.Error("double install accepted")
	}
}

func TestWebWorkload(t *testing.T) {
	w, err := NewWeb(nil)
	if err != nil {
		t.Fatal(err)
	}
	k := runAt(t, w, cpu.MaxStep, 0)
	// At full speed every interaction is responsive.
	if got := w.Metrics().MissCount(); got != 0 {
		t.Errorf("missed %d web deadlines at full speed", got)
	}
	if w.Metrics().Count() < 30 {
		t.Errorf("only %d interactions over 190s", w.Metrics().Count())
	}
	// Web browsing is mostly reading: low average utilization, but the
	// Java polling loop keeps it from being zero.
	if u := k.MeanUtil(); u < 0.02 || u > 0.40 {
		t.Errorf("web utilization = %.3f, want low but nonzero", u)
	}
}

func TestWebTraceDeterministic(t *testing.T) {
	a := DefaultWebTrace(42)
	b := DefaultWebTrace(42)
	if len(a.Events) != len(b.Events) {
		t.Fatal("same-seed traces differ in length")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("same-seed traces differ at event %d", i)
		}
	}
	c := DefaultWebTrace(43)
	same := len(c.Events) == len(a.Events)
	if same {
		identical := true
		for i := range a.Events {
			if a.Events[i] != c.Events[i] {
				identical = false
				break
			}
		}
		if identical {
			t.Error("different seeds gave identical traces")
		}
	}
}

// TestDefaultTracesFitTheirCapacity checks the event-count bounds the
// default trace generators pre-size their recorders with: a trace that
// outgrew its bound would still be correct, but would pay the doubling
// reallocations the bound exists to avoid.
func TestDefaultTracesFitTheirCapacity(t *testing.T) {
	gens := []struct {
		name  string
		gen   func(uint64) *trace.Trace
		bound int
		exact bool
	}{
		{"web", DefaultWebTrace, webTraceMaxEvents, false},
		{"chess", DefaultChessTrace, chessTraceMaxEvents, false},
		{"editor", DefaultEditorTrace, editorTraceEvents, true},
		{"feedback", DefaultFeedbackTrace, feedbackTraceMaxEvents, false},
	}
	for _, g := range gens {
		for seed := uint64(0); seed < 2000; seed++ {
			tr := g.gen(seed)
			n := len(tr.Events)
			if n > g.bound || cap(tr.Events) != g.bound || (g.exact && n != g.bound) {
				t.Fatalf("%s seed %d: %d events, capacity %d, bound %d", g.name, seed, n, cap(tr.Events), g.bound)
			}
		}
	}
}

func TestWebRejectsBadTrace(t *testing.T) {
	tr := DefaultWebTrace(1)
	tr.Events[0].At = -1
	if _, err := NewWeb(tr); err == nil {
		t.Error("invalid trace accepted")
	}
}

func TestChessWorkload(t *testing.T) {
	c, err := NewChess(nil)
	if err != nil {
		t.Fatal(err)
	}
	k := runAt(t, c, cpu.MaxStep, 0)
	if got := c.Metrics().MissCount(); got != 0 {
		t.Errorf("missed %d chess reply deadlines at full speed", got)
	}
	// The utilization pattern: full quanta while Crafty plans, idle while
	// the user thinks.
	full, idleish := 0, 0
	for _, u := range k.UtilLog() {
		switch {
		case u.PP10K >= 9900:
			full++
		case u.PP10K <= 500:
			idleish++
		}
	}
	if full < 100 {
		t.Errorf("only %d fully-busy quanta; Crafty planning should pin the CPU", full)
	}
	if idleish < 1000 {
		t.Errorf("only %d near-idle quanta; the novice thinks for long stretches", idleish)
	}
}

func TestChessPlanningIsWallClock(t *testing.T) {
	// Crafty plays for fixed periods: total planning CPU time is roughly
	// the same at 59 MHz as at 206.4 MHz (it just searches fewer nodes).
	run := func(step cpu.Step) sim.Duration {
		c, _ := NewChess(DefaultChessTrace(5))
		k := runAt(t, c, step, 0)
		var total sim.Duration
		for _, p := range k.Processes() {
			if p.Name() == "crafty" {
				total = p.CPUTime()
			}
		}
		return total
	}
	fast := run(cpu.MaxStep)
	slow := run(cpu.MinStep)
	ratio := float64(slow) / float64(fast)
	if ratio < 0.95 || ratio > 1.6 {
		t.Errorf("planning time ratio slow/fast = %.2f; search is time-boxed, want ≈1", ratio)
	}
}

func TestEditorWorkload(t *testing.T) {
	e, err := NewTalkingEditor(nil)
	if err != nil {
		t.Fatal(err)
	}
	runAt(t, e, cpu.MaxStep, 0)
	if got := e.Metrics().MissCount(); got != 0 {
		t.Errorf("missed %d editor deadlines at full speed, max lateness %v",
			got, e.Metrics().MaxLateness())
	}
	// Both passages produce speech chunks.
	chunks := e.Metrics().CountFor("speech")
	if chunks < 70 { // 18s + 22s of speech at 2 chunks/s
		t.Errorf("only %d speech chunks recorded", chunks)
	}
}

func TestEditorSlowClockDelaysSpeech(t *testing.T) {
	e, _ := NewTalkingEditor(nil)
	e.Metrics().Slack = 100 * sim.Millisecond
	runAt(t, e, cpu.MinStep, 0)
	if got := e.Metrics().MissCount(); got == 0 {
		t.Error("no speech delays at 59MHz; synthesis must fall behind")
	}
}

func TestEditorKeepsUpAt132(t *testing.T) {
	// The paper's interaction constraint: every application "was able to
	// run at 132MHz and still meet any user interaction constraints".
	e, _ := NewTalkingEditor(nil)
	e.Metrics().Slack = 100 * sim.Millisecond
	runAt(t, e, cpu.Step(5), 0)
	if got := e.Metrics().MissCount(); got != 0 {
		t.Errorf("editor missed %d deadlines at 132.7MHz; max lateness %v", got, e.Metrics().MaxLateness())
	}
}

func TestRectWaveShape(t *testing.T) {
	w, err := NewRectWave(9, 1, 10*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	k := runAt(t, w, cpu.MaxStep, 0)
	// Mean utilization ≈ 0.9.
	if u := k.MeanUtil(); u < 0.88 || u > 0.92 {
		t.Errorf("rect wave utilization = %.3f, want ≈0.9", u)
	}
	// The quantum log alternates 9 busy, 1 idle.
	busyRun, maxBusyRun := 0, 0
	for _, u := range k.UtilLog() {
		if u.PP10K > 5000 {
			busyRun++
			if busyRun > maxBusyRun {
				maxBusyRun = busyRun
			}
		} else {
			busyRun = 0
		}
	}
	if maxBusyRun < 8 || maxBusyRun > 11 {
		t.Errorf("longest busy run = %d quanta, want ≈9", maxBusyRun)
	}
}

func TestRectWaveValidation(t *testing.T) {
	if _, err := NewRectWave(0, 1, sim.Second); err == nil {
		t.Error("zero busy accepted")
	}
	if _, err := NewRectWave(1, 0, sim.Second); err == nil {
		t.Error("zero idle accepted")
	}
	if _, err := NewRectWave(9, 1, 0); err == nil {
		t.Error("zero length accepted")
	}
}

func TestJavaPollShape(t *testing.T) {
	eng := &sim.Engine{}
	k, _ := kernel.New(eng, kernel.DefaultConfig())
	if _, err := k.Spawn(&JavaPoll{length: sim.Second}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	// ~33 polls of ~1 ms each.
	var total sim.Duration
	for _, p := range k.Processes() {
		total += p.CPUTime()
	}
	if total < 25*sim.Millisecond || total > 45*sim.Millisecond {
		t.Errorf("poll CPU time over 1s = %v, want ≈33ms", total)
	}
}

func TestWorkloadNamesAndDurations(t *testing.T) {
	m, _ := NewMPEG(DefaultMPEGConfig())
	w, _ := NewWeb(nil)
	c, _ := NewChess(nil)
	e, _ := NewTalkingEditor(nil)
	r, _ := NewRectWave(9, 1, sim.Second)
	cases := []struct {
		w    Workload
		name string
		dur  sim.Duration
	}{
		{m, "MPEG", 60 * sim.Second},
		{w, "Web", 190 * sim.Second},
		{c, "Chess", 218 * sim.Second},
		{e, "TalkingEditor", 70 * sim.Second},
		{r, "RectWave9-1", sim.Second},
	}
	for _, tc := range cases {
		if tc.w.Name() != tc.name {
			t.Errorf("Name = %q, want %q", tc.w.Name(), tc.name)
		}
		if tc.w.Duration() != tc.dur {
			t.Errorf("%s Duration = %v, want %v", tc.name, tc.w.Duration(), tc.dur)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
