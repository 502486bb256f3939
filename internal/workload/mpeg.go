package workload

import (
	"fmt"

	"clocksched/internal/cpu"
	"clocksched/internal/kernel"
	"clocksched/internal/metrics"
	"clocksched/internal/sim"
)

// MPEGConfig shapes the MPEG player. The defaults model the paper's clip:
// a 320×200 MPEG-1 video at 15 frames/s, 14 s long, looped to 60 s, with
// the audio stream sent to a separate player process.
type MPEGConfig struct {
	// FPS is the frame rate.
	FPS int
	// Length is the playback length.
	Length sim.Duration
	// FrameBurst is the average per-frame decode work. The default is
	// calibrated so decoding busies ≈70% of the frame period at
	// 206.4 MHz and ≈87% at 132.7 MHz (Figure 9), with the plateau at
	// 162.2–176.9 MHz emerging from the Table 3 memory model.
	FrameBurst cpu.Burst
	// GOPLength is the I-frame spacing; I-frames (key or reference
	// frames) cost IFrameFactor× the base burst, P-frames jitter around
	// PFrameFactor×.
	GOPLength    int
	IFrameFactor float64
	PFrameFactor float64
	// PJitter is the uniform ± fraction applied to P-frame cost.
	PJitter float64
	// SpinThreshold is the player's scheduling heuristic: if a frame
	// completes with less than this much time to its display deadline,
	// the player spins rather than sleeping (the Itsy player used 12 ms).
	SpinThreshold sim.Duration
	// Seed drives frame-cost jitter.
	Seed uint64
	// Deadlines, when non-nil, makes the player advertise each frame's
	// work and due time to a deadline-based clock scheduler before
	// decoding it, and report completion afterwards — the cooperative
	// application model of the paper's future-work section.
	// *policy.ZooScheduler (the deadline scheduler among its rules)
	// satisfies this interface.
	Deadlines DeadlineSink
	// DropLateFrames switches the player to Pering et al.'s elastic
	// assumption: a frame whose display time has already passed when
	// decoding would start is skipped rather than decoded late. The
	// paper's own methodology treats constraints as inelastic
	// (DropLateFrames = false); the drop-tolerant mode exists to
	// reproduce the energy-vs-frame-rate comparison of Section 3.
	DropLateFrames bool
}

// DeadlineSink is where a deadline-aware application registers its timing
// obligations.
type DeadlineSink interface {
	// Submit registers work due at an absolute time and returns a job id.
	// The work is in cycles at cpu.MaxStep, where a burst's memory
	// cycles cost the most; the players pass each job's realised burst.
	Submit(cycles int64, due sim.Time) int
	// Complete reports that the job finished.
	Complete(id int)
}

// DefaultMPEGConfig returns the paper's clip parameters.
func DefaultMPEGConfig() MPEGConfig {
	return MPEGConfig{
		FPS:    15,
		Length: 60 * sim.Second,
		// Calibrated against Figure 9; see package cpu's Table 3 model.
		FrameBurst:    cpu.Burst{Core: 3_800_000, Mem: 136_000, Cache: 38_000},
		GOPLength:     12,
		IFrameFactor:  1.70,
		PFrameFactor:  0.95,
		PJitter:       0.10,
		SpinThreshold: 12 * sim.Millisecond,
		Seed:          1,
	}
}

func (c MPEGConfig) validate() error {
	if c.FPS < 1 || c.FPS > 60 {
		return fmt.Errorf("workload: bad FPS %d", c.FPS)
	}
	if c.Length <= 0 {
		return fmt.Errorf("workload: bad length %v", c.Length)
	}
	if c.FrameBurst.Zero() {
		return fmt.Errorf("workload: empty frame burst")
	}
	if c.GOPLength < 1 {
		return fmt.Errorf("workload: bad GOP length %d", c.GOPLength)
	}
	if c.IFrameFactor <= 0 || c.PFrameFactor <= 0 || c.PJitter < 0 || c.PJitter >= 1 {
		return fmt.Errorf("workload: bad frame cost factors")
	}
	if c.SpinThreshold < 0 {
		return fmt.Errorf("workload: negative spin threshold")
	}
	return nil
}

// MPEG is the video+audio playback workload.
type MPEG struct {
	cfg       MPEGConfig
	col       metrics.Collector
	video     mpegVideo
	audio     mpegAudio
	installed bool
}

// NewMPEG builds the workload.
func NewMPEG(cfg MPEGConfig) (*MPEG, error) { return new(MPEG).renew(cfg) }

// renew makes m what NewMPEG(cfg) returns, keeping its collector's
// streams.
func (m *MPEG) renew(cfg MPEGConfig) (*MPEG, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m.clear()
	m.cfg = cfg
	return m, nil
}

// clear drops every reference m holds to its last run.
func (m *MPEG) clear() {
	m.col.Reset()
	*m = MPEG{col: m.col}
}

// Name implements Workload.
func (m *MPEG) Name() string { return "MPEG" }

// Duration implements Workload.
func (m *MPEG) Duration() sim.Duration { return m.cfg.Length }

// Metrics implements Workload.
func (m *MPEG) Metrics() *metrics.Collector { return &m.col }

// DroppedFrames reports how many frames the player skipped; always zero
// unless DropLateFrames is set. Valid after the run.
func (m *MPEG) DroppedFrames() int { return m.video.dropped }

// Install implements Workload: it spawns the video player and the forked
// audio player.
func (m *MPEG) Install(k *kernel.Kernel) error {
	if m.installed {
		return errReinstall
	}
	m.installed = true
	m.video = mpegVideo{cfg: m.cfg, col: &m.col, rng: *sim.NewRNG(m.cfg.Seed)}
	if _, err := k.Spawn(&m.video); err != nil {
		return err
	}
	// Audio runs as a separate process fed from the WAV stream: cheap,
	// periodic chunks, one per 100 ms of sound.
	m.audio = mpegAudio{length: m.cfg.Length, col: &m.col}
	if _, err := k.Spawn(&m.audio); err != nil {
		return err
	}
	return nil
}

// framePeriod returns the exact deadline of frame i (0-based): frames are
// sequenced against the wall clock so late frames do not shift the
// schedule, keeping audio and video nominally synchronized at 15 frames/s.
func frameDeadline(i int, fps int) sim.Time {
	return sim.Time((int64(i+1)*1000000 + int64(fps)/2) / int64(fps))
}

// mpegVideo decodes frames and either sleeps or spins out the slack, like
// the default Itsy player.
type mpegVideo struct {
	cfg   MPEGConfig
	col   *metrics.Collector
	rng   sim.RNG
	frame int
	// decoded marks that the current frame's burst completed and the
	// player is deciding how to wait.
	decoded bool
	// job is the deadline-scheduler id of the in-flight frame.
	job int
	// dropped counts frames skipped under DropLateFrames.
	dropped int
}

// Name implements kernel.Program.
func (v *mpegVideo) Name() string { return "mpeg_play" }

// Next implements kernel.Program.
func (v *mpegVideo) Next(now sim.Time) kernel.Action {
	deadline := frameDeadline(v.frame, v.cfg.FPS)
	if !v.decoded {
		if deadline > v.cfg.Length {
			return kernel.Exit()
		}
		if v.cfg.DropLateFrames && now >= deadline {
			// Pering-style elasticity: the frame's moment has passed;
			// skip to the first frame that can still be shown.
			v.dropped++
			v.frame++
			return kernel.Compute(cpu.Burst{}) // loop to the next frame
		}
		v.decoded = true
		burst := v.frameBurst()
		if v.cfg.Deadlines != nil {
			// Advertise the frame's realised work, in cycles at the top
			// step, to the deadline scheduler before decoding it.
			v.job = v.cfg.Deadlines.Submit(burst.Cycles(cpu.MaxStep), deadline)
		}
		return kernel.Compute(burst)
	}
	// Frame decoded: record its deadline and wait for display time.
	v.decoded = false
	if v.cfg.Deadlines != nil {
		v.cfg.Deadlines.Complete(v.job)
	}
	v.col.Record("frame", v.frame, deadline, now)
	v.frame++
	slack := deadline - now
	switch {
	case slack <= 0:
		// Late: start the next frame immediately.
		return kernel.Compute(cpu.Burst{}) // no-op, loop continues
	case slack < v.cfg.SpinThreshold:
		return kernel.SpinUntil(deadline)
	default:
		return kernel.SleepUntil(deadline)
	}
}

func (v *mpegVideo) frameBurst() cpu.Burst {
	factor := v.cfg.PFrameFactor
	if v.frame%v.cfg.GOPLength == 0 {
		factor = v.cfg.IFrameFactor
	} else if v.cfg.PJitter > 0 {
		factor *= 1 + v.cfg.PJitter*(2*v.rng.Float64()-1)
	}
	return v.cfg.FrameBurst.Scale(factor)
}

// audioChunk is the playback granule of the WAV stream.
const audioChunk = 100 * sim.Millisecond

// mpegAudio renders the audio stream: a small fixed burst per chunk,
// sequenced on the wall clock like the video.
type mpegAudio struct {
	length  sim.Duration
	col     *metrics.Collector
	chunk   int
	playing bool
}

// Name implements kernel.Program.
func (a *mpegAudio) Name() string { return "wav_play" }

// audioBurst is ~2 ms of decode work at full speed per 100 ms chunk.
var audioBurst = cpu.Burst{Core: 350_000, Mem: 5_000, Cache: 1_200}

// Next implements kernel.Program.
func (a *mpegAudio) Next(now sim.Time) kernel.Action {
	due := sim.Time(a.chunk+1) * audioChunk
	if !a.playing {
		if due > a.length {
			return kernel.Exit()
		}
		a.playing = true
		return kernel.Compute(audioBurst)
	}
	a.playing = false
	a.col.Record("audio", a.chunk, due, now)
	a.chunk++
	if due > now {
		return kernel.SleepUntil(due)
	}
	return kernel.Compute(cpu.Burst{})
}
