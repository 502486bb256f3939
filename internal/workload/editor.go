package workload

import (
	"clocksched/internal/cpu"
	"clocksched/internal/kernel"
	"clocksched/internal/metrics"
	"clocksched/internal/sim"
	"clocksched/internal/trace"
)

// TalkingEditor models the paper's modified "mpedit" Java text editor that
// reads files aloud through DECtalk: the 70-second input trace opens a file
// through the file dialogue (bursty UI work — dragging, JIT'ing, opening
// files), has it spoken aloud (long synthesis computation feeding the
// OSS-compatible sound driver), then opens and speaks a second file. As in
// the paper, the speech synthesizer runs as a separate process, and the
// sound driver takes its own cycles during playback; the application is
// "bursty at a higher level" than the others.
type TalkingEditor struct {
	tr        *trace.Trace
	col       metrics.Collector
	installed bool
}

// UI work per dialogue event (at-full-speed scale).
var (
	editorUIBurst  = cpu.Burst{Core: 12_000_000, Mem: 500_000, Cache: 120_000}
	editorOpenFile = cpu.Burst{Core: 25_000_000, Mem: 900_000, Cache: 250_000}
)

// Speech synthesis parameters: text is synthesized in chunks, each covering
// speechChunk of playback, buffered speechBuffer chunks ahead. Synthesizing
// one chunk costs synthChunkBurst — roughly 290 ms at 206.4 MHz and 410 ms
// at 132.7 MHz per 500 ms of speech — so synthesis keeps ahead of playback
// at 132.7 MHz and above even with the polling loop and sound driver
// competing for quanta, but falls behind at the slowest steps ("the speech
// synthesis engine had noticeable delays").
const (
	speechChunk  = 500 * sim.Millisecond
	speechBuffer = 4 // chunks the audio pipeline holds
)

var synthChunkBurst = cpu.Burst{Core: 42_000_000, Mem: 500_000, Cache: 120_000}

// soundDriverBurst is the per-100 ms cost of feeding the OSS sound device
// during playback.
var soundDriverBurst = cpu.Burst{Core: 700_000, Mem: 15_000, Cache: 3_000}

const soundDriverPeriod = 100 * sim.Millisecond

const editorUIDeadline = 500 * sim.Millisecond

// editorTraceEvents is DefaultEditorTrace's event count: six dialogue
// taps and a file open, then four taps and a second open.
const editorTraceEvents = 6 + 1 + 4 + 1

// DefaultEditorTrace generates the deterministic 70 s session. Kinds:
// "ui" (dialogue interaction, arg = weight in tenths) and "openfile"
// (arg = file length in seconds of speech).
func DefaultEditorTrace(seed uint64) *trace.Trace {
	return DefaultEditorTraceInto(new(trace.Recorder), seed)
}

// DefaultEditorTraceInto generates DefaultEditorTrace(seed) into
// rec, which it resets, and returns rec's trace.
func DefaultEditorTraceInto(rec *trace.Recorder, seed uint64) *trace.Trace {
	rng := sim.NewRNG(seed)
	rec.Reset("talking-editor", editorTraceEvents)
	// Phase 1: navigate the file dialogue to the short text file.
	now := sim.Time(1 * sim.Second)
	for i := 0; i < 6; i++ {
		rec.Add(now, "ui", 6+rng.Int63n(8))
		now += rng.Duration(800*sim.Millisecond, 2200*sim.Millisecond)
	}
	// Speak the short file: ~18 s of speech.
	rec.Add(now, "openfile", 18)
	now += 24 * sim.Second
	// Phase 2: open the second text file.
	for i := 0; i < 4; i++ {
		rec.Add(now, "ui", 6+rng.Int63n(8))
		now += rng.Duration(800*sim.Millisecond, 2000*sim.Millisecond)
	}
	rec.Add(now, "openfile", 22)
	tr, err := rec.Finish()
	if err != nil {
		panic(err)
	}
	return tr
}

// NewTalkingEditor builds the workload from an input trace; nil selects
// DefaultEditorTrace(1).
func NewTalkingEditor(tr *trace.Trace) (*TalkingEditor, error) {
	if tr == nil {
		tr = DefaultEditorTrace(1)
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return &TalkingEditor{tr: tr}, nil
}

// Name implements Workload.
func (e *TalkingEditor) Name() string { return "TalkingEditor" }

// Duration implements Workload.
func (e *TalkingEditor) Duration() sim.Duration { return 70 * sim.Second }

// Metrics implements Workload.
func (e *TalkingEditor) Metrics() *metrics.Collector { return &e.col }

// Install implements Workload.
func (e *TalkingEditor) Install(k *kernel.Kernel) error {
	if e.installed {
		return errReinstall
	}
	e.installed = true

	synth := &dectalk{col: &e.col}
	synthProc, err := k.Spawn(synth)
	if err != nil {
		return err
	}
	driver := &soundDriver{}
	driverProc, err := k.Spawn(driver)
	if err != nil {
		return err
	}
	synth.startPlayback = func(start, end sim.Time) {
		driver.enqueue(start, end)
		k.Wake(driverProc)
	}

	passage := 0
	ui := &eventDriven{
		name: "mpedit",
		col:  &e.col,
		handle: func(now sim.Time, ev trace.Event) response {
			switch ev.Kind {
			case "ui":
				return response{
					actions: []kernel.Action{kernel.Compute(editorUIBurst.Scale(float64(ev.Arg) / 10))},
					stream:  "ui",
					seq:     int(ev.At / 1000),
					due:     ev.At + editorUIDeadline,
				}
			case "openfile":
				passage++
				chunks := int(ev.Arg * int64(sim.Second) / int64(speechChunk))
				p := passage
				return response{
					actions: []kernel.Action{
						kernel.Compute(editorOpenFile),
						// Hand the text to DECtalk once the file is read.
						handoff(func(handNow sim.Time) {
							synth.enqueue(p, handNow, chunks)
							k.Wake(synthProc)
						}),
					},
					stream: "open",
					seq:    passage,
					due:    ev.At + editorUIDeadline,
				}
			default:
				return response{}
			}
		},
	}
	uiProc, err := k.Spawn(ui)
	if err != nil {
		return err
	}
	if err := installTrace(k, ui, uiProc, e.tr); err != nil {
		return err
	}
	_, err = k.Spawn(NewJavaPoll(e.Duration()))
	return err
}

// handoff is a zero-length action whose only purpose is its side effect:
// the kernel runs the callback when it picks the action up, which is the
// moment the preceding action (reading the file) completed.
func handoff(fn func(now sim.Time)) kernel.Action {
	return kernel.Action{Kind: kernel.ActSleepFor, Dur: 0, SideEffect: fn}
}

// speechJob is one passage handed to the synthesizer.
type speechJob struct {
	passage int
	start   sim.Time
	chunks  int
}

// dectalk is the speech-synthesis process: it races ahead of playback,
// throttled by the audio buffer, and records a deadline for every chunk —
// the chunk must be synthesized before playback needs it.
type dectalk struct {
	col           *metrics.Collector
	startPlayback func(start, end sim.Time)

	queue []speechJob
	job   *speechJob
	chunk int
	// synthesizing marks that the current chunk's burst was issued.
	synthesizing bool
	playStart    sim.Time
}

// enqueue adds a passage; the caller wakes the process.
func (d *dectalk) enqueue(passage int, now sim.Time, chunks int) {
	d.queue = append(d.queue, speechJob{passage: passage, start: now, chunks: chunks})
}

// Name implements kernel.Program.
func (d *dectalk) Name() string { return "dectalk" }

// Next implements kernel.Program.
func (d *dectalk) Next(now sim.Time) kernel.Action {
	for {
		if d.job == nil {
			if len(d.queue) == 0 {
				return kernel.WaitEvent()
			}
			j := d.queue[0]
			d.queue = d.queue[1:]
			d.job = &j
			d.chunk = 0
			d.synthesizing = false
			// Playback begins one chunk after synthesis starts.
			d.playStart = j.start + speechChunk
			if d.startPlayback != nil {
				d.startPlayback(d.playStart, d.playStart+sim.Time(j.chunks)*speechChunk)
			}
		}
		if d.chunk >= d.job.chunks {
			d.job = nil
			continue
		}
		if !d.synthesizing {
			// Throttle: the buffer holds speechBuffer chunks ahead of the
			// playhead.
			gate := d.playStart + sim.Time(d.chunk-speechBuffer)*speechChunk
			if now < gate {
				return kernel.SleepUntil(gate)
			}
			d.synthesizing = true
			return kernel.Compute(synthChunkBurst)
		}
		// Chunk synthesized: record its playback deadline.
		d.synthesizing = false
		due := d.playStart + sim.Time(d.chunk)*speechChunk
		d.col.RecordChunk("speech", d.job.passage, d.chunk, due, now)
		d.chunk++
	}
}

// soundDriver feeds the audio device during playback windows.
type soundDriver struct {
	windows [][2]sim.Time
	cur     *[2]sim.Time
	next    sim.Time
	working bool
}

// enqueue adds a playback window; the caller wakes the process.
func (s *soundDriver) enqueue(start, end sim.Time) {
	s.windows = append(s.windows, [2]sim.Time{start, end})
}

// Name implements kernel.Program.
func (s *soundDriver) Name() string { return "oss-audio" }

// Next implements kernel.Program.
func (s *soundDriver) Next(now sim.Time) kernel.Action {
	for {
		if s.working {
			s.working = false
			s.next += soundDriverPeriod
		}
		if s.cur == nil {
			if len(s.windows) == 0 {
				return kernel.WaitEvent()
			}
			w := s.windows[0]
			s.windows = s.windows[1:]
			s.cur = &w
			s.next = w[0]
		}
		if s.next >= s.cur[1] {
			s.cur = nil
			continue
		}
		if now < s.next {
			return kernel.SleepUntil(s.next)
		}
		s.working = true
		return kernel.Compute(soundDriverBurst)
	}
}
