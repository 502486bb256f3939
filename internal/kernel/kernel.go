package kernel

import (
	"errors"
	"fmt"

	"clocksched/internal/cpu"
	"clocksched/internal/fault"
	"clocksched/internal/power"
	"clocksched/internal/sim"
	"clocksched/internal/telemetry"
)

// SpeedPolicy is the installable clock scaling policy module. The kernel
// calls it from the clock-interrupt handler at every quantum with the
// utilization of the quantum that just ended (PP10K: busy microseconds per
// 10 ms quantum) and the current clock step and core voltage; it returns
// the settings for the next quantum. policy.Governor and policy.Constant
// satisfy this interface.
type SpeedPolicy interface {
	OnQuantum(now sim.Time, utilPP10K int, s cpu.Step, v cpu.Voltage) (cpu.Step, cpu.Voltage)
}

// Config configures a kernel instance.
type Config struct {
	// Policy is the clock scaling module; nil runs at the initial
	// settings forever (no module installed).
	Policy SpeedPolicy
	// InitialStep and InitialV are the boot clock settings.
	InitialStep cpu.Step
	InitialV    cpu.Voltage
	// Model is the power model used for the energy timeline.
	Model power.Model
	// Quantum is the scheduling quantum; zero selects the Linux default
	// of 10 ms.
	Quantum sim.Duration
	// SchedOverhead is the execution overhead of forcing the scheduler to
	// run every quantum; the paper measured about 6 µs per 10 ms
	// interval (0.06%). It is charged as busy time. Zero means zero.
	SchedOverhead sim.Duration
	// SchedLogCap bounds the scheduler activity log, reproducing the
	// paper's instrumentation artifact: "Due to kernel memory
	// limitations, we could only capture a subset of the process
	// behavior." Zero means unbounded; once the cap is reached, further
	// decisions go unrecorded (scheduling itself is unaffected).
	// A non-zero cap implies RetainSchedLog.
	SchedLogCap int
	// RetainSchedLog keeps the full []SchedEntry record list for
	// SchedLog(). By default the kernel folds every decision into the
	// running LogStats digest and discards the record: a long run makes
	// hundreds of thousands of decisions, and retaining them all was the
	// single largest allocation of a sweep cell. AnalyzeLog works either
	// way and reports identical numbers.
	RetainSchedLog bool
	// RetainUtilLog keeps the per-quantum []UtilSample record for
	// UtilLog(). By default the kernel only tallies the quantum count and
	// the utilization sum (Quanta, UtilSum, MeanUtil), which is all a digest
	// needs; a 60 s run would otherwise keep 6000 samples per cell.
	RetainUtilLog bool
	// Faults, when non-nil, injects hardware and kernel misbehaviour:
	// failed clock changes, extended PLL stalls, timer jitter, and
	// dropped or delayed scheduler-log records. Nil injects nothing and
	// leaves the simulation bit-identical to a fault-free build.
	Faults *fault.Injector
	// EventCap bounds how many engine events the run may fire; a run
	// exceeding it aborts with a diagnostic instead of hanging. Zero
	// leaves the engine's own MaxEvents setting untouched.
	EventCap uint64
	// CheckCancel, when non-nil, is polled at every quantum boundary
	// (before the policy module runs); a non-nil return aborts the run
	// with that error. It is how context cancellation reaches the virtual
	// clock: the simulation never blocks, so the quantum tick is the
	// natural — and deterministic — preemption point.
	CheckCancel func() error
	// Telemetry, when non-nil, receives live quantum/idle/speed-change
	// metrics and also instruments the engine. Nil disables instrumentation
	// at the cost of one nil check per operation on the hot path.
	Telemetry *telemetry.Registry
}

// DefaultConfig returns the paper's measurement configuration: no policy
// module, full speed at 1.5 V, the calibrated power model, 10 ms quanta,
// and the measured 6 µs scheduler overhead.
func DefaultConfig() Config {
	return Config{
		InitialStep:   cpu.MaxStep,
		InitialV:      cpu.VHigh,
		Model:         power.DefaultModel(),
		Quantum:       sim.Quantum,
		SchedOverhead: 6 * sim.Microsecond,
	}
}

// SchedEntry is one record of the scheduler activity log: which process was
// scheduled, when (microsecond resolution), and the clock rate at the time.
type SchedEntry struct {
	At  sim.Time
	PID int
	KHz int64
}

// UtilSample is one quantum's utilization as the policy module saw it.
type UtilSample struct {
	At     sim.Time // end of the quantum
	PP10K  int      // busy fraction, parts per 10000
	StepAt cpu.Step // clock step during the quantum
}

// Kernel is the simulated operating system.
type Kernel struct {
	eng *sim.Engine
	cfg Config

	procs []*Process
	// runq is a head-indexed ring: popping advances runqHead instead of
	// re-slicing, so the round-robin queue churns no memory. The slice
	// compacts when the dead prefix grows large and resets when drained.
	runq     []*Process
	runqHead int
	cur      *Process
	nextPID  int

	// Event callbacks bound once in New. The clock interrupt re-arms
	// itself every quantum; binding the method value once means re-arming
	// allocates nothing (a `k.tick` method-value expression allocates a
	// fresh closure at every evaluation).
	tickFn       sim.Event
	stallEndFn   sim.Event
	voltSettleFn sim.Event

	// powerW memoizes cfg.Model.Power for every (step, voltage, mode)
	// combination — the state space is tiny (11×2×3) and setPowerState
	// runs several times per quantum.
	powerW [cpu.NumSteps][2][3]float64

	step cpu.Step
	volt cpu.Voltage
	// powerVolt lags volt by the settle time on downward changes: the
	// supply drains slowly through the decoupling capacitors, so the
	// power rail stays at the old level for VoltageSettleDown.
	powerVolt cpu.Voltage

	stalling   bool
	completion sim.Handle // pending burst-completion event for cur

	lastAccount   sim.Time
	busyQuantum   sim.Duration
	rec           *power.Recorder
	schedLog      []SchedEntry
	logStats      logTally
	utilLog       []UtilSample
	quanta        int
	utilSum       int
	speedChanges  int
	failedChanges int
	voltChanges   int
	stallTime     sim.Duration

	residency    [cpu.NumSteps]sim.Duration
	lastResStamp sim.Time

	// inProgram guards against reentrant dispatch: a program's Next (or
	// an action's SideEffect) may call Wake, which must then only queue
	// the woken process, not start it while the caller still holds the
	// scheduling state.
	inProgram bool

	finished bool
	// err is the first internal failure; once set the engine is halted
	// and Run returns it instead of a result.
	err error

	// Telemetry instruments, resolved once in New; all nil (no-op) when
	// Config.Telemetry is nil.
	telQuanta  *telemetry.Counter
	telUtil    *telemetry.Histogram
	telIdle    *telemetry.Counter
	telSpeed   *telemetry.Counter
	telFailed  *telemetry.Counter
	telVolt    *telemetry.Counter
	telStallUs *telemetry.Counter
}

// Structured failure classes a run can report. Callers match them with
// errors.Is on the error returned by Run.
var (
	// ErrProgramSpin: a program returned zero-length actions without
	// bound, so the simulation could make no progress.
	ErrProgramSpin = errors.New("kernel: program spins on zero-length actions")
	// ErrUnknownAction: a program returned an action kind the kernel
	// does not implement.
	ErrUnknownAction = errors.New("kernel: program returned unknown action")
)

// fail records the first internal failure and halts the engine, so the run
// unwinds back to Run with a diagnostic instead of panicking mid-event.
func (k *Kernel) fail(err error) {
	if err == nil {
		return
	}
	if k.err == nil {
		k.err = err
	}
	k.eng.Fail(err)
}

// New creates a kernel on the given engine. The engine must be at time 0.
func New(eng *sim.Engine, cfg Config) (*Kernel, error) {
	if eng == nil {
		return nil, errors.New("kernel: nil engine")
	}
	if eng.Now() != 0 {
		return nil, fmt.Errorf("kernel: engine already at %v", eng.Now())
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = sim.Quantum
	}
	if cfg.Quantum < 0 {
		return nil, fmt.Errorf("kernel: negative quantum %v", cfg.Quantum)
	}
	if cfg.SchedOverhead < 0 || cfg.SchedOverhead >= cfg.Quantum {
		return nil, fmt.Errorf("kernel: scheduler overhead %v out of range", cfg.SchedOverhead)
	}
	if !cfg.InitialStep.Valid() {
		return nil, fmt.Errorf("kernel: invalid initial step %d", int(cfg.InitialStep))
	}
	if !cpu.VoltageOK(cfg.InitialStep, cfg.InitialV) {
		return nil, fmt.Errorf("kernel: %v unsafe at %v", cfg.InitialV, cfg.InitialStep)
	}
	k := &Kernel{
		eng:       eng,
		cfg:       cfg,
		nextPID:   1,
		step:      cfg.InitialStep,
		volt:      cfg.InitialV,
		powerVolt: cfg.InitialV,
	}
	k.rec = power.NewRecorder(cfg.Model, power.State{
		Step: k.step, V: k.powerVolt, Mode: power.ModeNap,
	})
	k.tickFn = k.tick
	k.stallEndFn = func(t sim.Time) {
		k.account(t)
		k.stalling = false
		k.dispatch(t)
	}
	k.voltSettleFn = func(t sim.Time) {
		if k.volt == cpu.VLow {
			k.powerVolt = cpu.VLow
			k.setPowerState(t)
		}
	}
	for s := cpu.MinStep; s <= cpu.MaxStep; s++ {
		for _, v := range []cpu.Voltage{cpu.VHigh, cpu.VLow} {
			for _, m := range []power.Mode{power.ModeNap, power.ModeActive, power.ModeStall} {
				k.powerW[s][v][m] = cfg.Model.Power(power.State{Step: s, V: v, Mode: m})
			}
		}
	}
	reg := cfg.Telemetry
	k.telQuanta = reg.Counter(telemetry.MKernelQuanta)
	k.telUtil = reg.Histogram(telemetry.MKernelQuantumUtil, telemetry.UtilBuckets)
	k.telIdle = reg.Counter(telemetry.MKernelIdleDispatch)
	k.telSpeed = reg.Counter(telemetry.MKernelSpeedChanges)
	k.telFailed = reg.Counter(telemetry.MKernelFailedSpeed)
	k.telVolt = reg.Counter(telemetry.MKernelVoltChanges)
	k.telStallUs = reg.Counter(telemetry.MKernelStallMicros)
	eng.Instrument(reg)
	return k, nil
}

// Engine returns the simulation engine, for scheduling external events
// (e.g. input-trace wakeups) against the same clock.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// Step returns the current clock step.
func (k *Kernel) Step() cpu.Step { return k.step }

// Voltage returns the current core voltage.
func (k *Kernel) Voltage() cpu.Voltage { return k.volt }

// Recorder returns the power timeline. It is complete only after Run; a
// caller that switched it to streaming (power.Recorder.Stream) receives the
// timeline through its sink instead.
func (k *Kernel) Recorder() *power.Recorder { return k.rec }

// SchedLog returns the scheduler activity log.
func (k *Kernel) SchedLog() []SchedEntry { return k.schedLog }

// UtilLog returns the per-quantum utilization log; it is empty unless
// Config.RetainUtilLog was set.
func (k *Kernel) UtilLog() []UtilSample { return k.utilLog }

// Quanta returns how many scheduling quanta have ended.
func (k *Kernel) Quanta() int { return k.quanta }

// UtilSum returns the sum of every ended quantum's utilization, in parts per
// 10000.
func (k *Kernel) UtilSum() int { return k.utilSum }

// MeanUtil returns the average per-quantum utilization in [0,1], zero
// before the first quantum ends.
func (k *Kernel) MeanUtil() float64 {
	if k.quanta == 0 {
		return 0
	}
	return float64(k.utilSum) / float64(k.quanta) / 10000
}

// SpeedChanges returns how many clock-step changes the policy made.
func (k *Kernel) SpeedChanges() int { return k.speedChanges }

// FailedSpeedChanges returns how many requested clock-step changes were
// lost to injected clock-change failures.
func (k *Kernel) FailedSpeedChanges() int { return k.failedChanges }

// VoltageChanges returns how many core-voltage changes the policy made.
func (k *Kernel) VoltageChanges() int { return k.voltChanges }

// StallTime returns the total time lost to PLL relock stalls.
func (k *Kernel) StallTime() sim.Duration { return k.stallTime }

// Residency returns the time spent at each clock step.
func (k *Kernel) Residency() [cpu.NumSteps]sim.Duration { return k.residency }

// Processes returns all spawned processes (excluding the implicit idle
// process).
func (k *Kernel) Processes() []*Process { return k.procs }

// Spawn creates a runnable process executing prog. It must be called before
// or during Run, at the engine's current time.
func (k *Kernel) Spawn(prog Program) (*Process, error) {
	if prog == nil {
		return nil, errors.New("kernel: nil program")
	}
	if k.finished {
		return nil, errors.New("kernel: Spawn after Run completed")
	}
	p := &Process{pid: k.nextPID, name: prog.Name(), prog: prog, kind: ActSleepFor}
	p.completeFn = func(t sim.Time) { k.onCompletion(p, t) }
	p.wakeFn = func(sim.Time) {
		if p.state == StateSleeping {
			k.Wake(p)
		}
	}
	k.nextPID++
	k.procs = append(k.procs, p)
	// The process's first action is fetched when it is first scheduled.
	p.state = StateRunnable
	k.runq = append(k.runq, p)
	if k.cur == nil && !k.stalling {
		k.dispatch(k.eng.Now())
	}
	return p, nil
}

// Wake makes a waiting or sleeping process runnable, as an interrupt
// delivering an input event would. Waking a runnable or exited process is a
// no-op.
func (k *Kernel) Wake(p *Process) {
	if p == nil || (p.state != StateWaiting && p.state != StateSleeping) {
		return
	}
	k.eng.Cancel(p.wake)
	p.state = StateRunnable
	k.runq = append(k.runq, p)
	if k.cur == nil && !k.stalling && !k.inProgram {
		k.account(k.eng.Now())
		k.dispatch(k.eng.Now())
	}
}

// Run executes the simulation until the given time, then closes the power
// timeline. It may be called once. An internal inconsistency — a spinning
// program, an unschedulable event, a regressing power timeline, or the
// configured event cap — aborts the run and is returned as a wrapped,
// structured error; Run never panics on them.
func (k *Kernel) Run(until sim.Time) error {
	if k.finished {
		return errors.New("kernel: Run called twice")
	}
	if until <= k.eng.Now() {
		return fmt.Errorf("kernel: Run until %v is not in the future", until)
	}
	if k.cfg.EventCap > 0 {
		k.eng.MaxEvents = k.cfg.EventCap
	}
	if k.cfg.RetainUtilLog {
		// One sample per quantum, so the final size is known up front.
		k.utilLog = make([]UtilSample, 0, int((until-k.eng.Now())/k.cfg.Quantum)+2)
	}
	// Arm the periodic clock interrupt.
	if _, err := k.eng.At(k.eng.Now()+k.cfg.Quantum, k.tickFn); err != nil {
		return err
	}
	if k.cur == nil && !k.stalling {
		k.dispatch(k.eng.Now())
	}
	err := k.eng.RunUntil(until)
	k.finished = true
	if k.err == nil && err != nil {
		k.err = err
	}
	if k.err != nil {
		return fmt.Errorf("kernel: run aborted at %v: %w", k.eng.Now(), k.err)
	}
	k.account(until)
	k.stampResidency(until)
	if err := k.rec.Finish(until); err != nil {
		return fmt.Errorf("kernel: closing power timeline: %w", err)
	}
	return nil
}

// --- internals ---

// account attributes the time since lastAccount to the current activity:
// busy time for a running process or a stall, progress for the running
// action.
func (k *Kernel) account(now sim.Time) {
	dt := now - k.lastAccount
	if dt <= 0 {
		return
	}
	k.lastAccount = now
	if k.stalling {
		k.busyQuantum += dt
		k.stallTime += dt
		return
	}
	if k.cur != nil {
		k.busyQuantum += dt
		k.cur.advanceBy(dt, k.step)
	}
}

func (k *Kernel) stampResidency(now sim.Time) {
	k.residency[k.step] += now - k.lastResStamp
	k.lastResStamp = now
}

// logDecision records one scheduling decision, honouring the configured
// log capacity (the paper's kernel-memory limitation) and any injected
// trace faults: a record can be dropped outright or written with a late
// timestamp, leaving the log non-monotonic the way deferred log writes on
// real hardware would. Every surviving record is folded into the running
// LogStats tally; the record itself is kept only when retention is on.
func (k *Kernel) logDecision(e SchedEntry) {
	if k.cfg.SchedLogCap > 0 && k.logStats.decisions >= k.cfg.SchedLogCap {
		return
	}
	if k.cfg.Faults.DropTraceEvent() {
		return
	}
	e.At += k.cfg.Faults.TraceDelay()
	k.logStats.note(e)
	if k.cfg.RetainSchedLog || k.cfg.SchedLogCap > 0 {
		k.schedLog = append(k.schedLog, e)
	}
}

// setPowerState pushes the current mode/step/voltage to the recorder,
// through the memoized power table.
func (k *Kernel) setPowerState(now sim.Time) {
	mode := power.ModeNap
	switch {
	case k.stalling:
		mode = power.ModeStall
	case k.cur != nil:
		mode = power.ModeActive
	}
	if err := k.rec.SetWatts(now, k.powerW[k.step][k.powerVolt][mode]); err != nil {
		k.fail(err)
	}
}

// tick is the 100 Hz clock interrupt with the forced per-quantum scheduler
// invocation: account utilization, run the policy module, then round-robin.
func (k *Kernel) tick(now sim.Time) {
	if k.cfg.CheckCancel != nil {
		if err := k.cfg.CheckCancel(); err != nil {
			k.fail(fmt.Errorf("cancelled at quantum boundary: %w", err))
			return
		}
	}
	if k.cfg.Faults.RunAborts() {
		k.fail(fmt.Errorf("fault injection at quantum boundary: %w", fault.ErrCellAbort))
		return
	}
	k.account(now)

	// Charge the forced-rescheduling overhead as busy time.
	k.busyQuantum += k.cfg.SchedOverhead

	util := int(k.busyQuantum * 10000 / k.cfg.Quantum)
	if util > 10000 {
		util = 10000
	}
	k.quanta++
	k.utilSum += util
	if k.cfg.RetainUtilLog {
		k.utilLog = append(k.utilLog, UtilSample{At: now, PP10K: util, StepAt: k.step})
	}
	k.busyQuantum = 0
	k.telQuanta.Inc()
	k.telUtil.Observe(float64(util) / 10000)

	if k.cfg.Policy != nil {
		s, v := k.cfg.Policy.OnQuantum(now, util, k.step, k.volt)
		k.applySettings(now, s, v)
	}

	// Round-robin: the running process goes to the back of the queue.
	if k.cur != nil {
		k.eng.Cancel(k.completion)
		p := k.cur
		k.cur = nil
		if p.actionDone(now) {
			k.advanceProgram(p, now)
		}
		if p.state == StateRunnable {
			k.runq = append(k.runq, p)
		}
	}
	if !k.stalling {
		k.dispatch(now)
	}

	// Re-arm the interrupt, late when the injected timer jitter says so.
	// Subsequent ticks re-align to the stretched schedule, so a jittered
	// quantum runs long rather than the next one running short.
	if _, err := k.eng.At(now+k.cfg.Quantum+k.cfg.Faults.TimerJitter(), k.tickFn); err != nil {
		k.fail(fmt.Errorf("re-arming clock interrupt: %w", err))
	}
}

// applySettings moves the clock step and voltage, modelling the PLL stall
// and the voltage settle. An injected clock-change failure leaves the step
// untouched with no stall: the policy only learns of it from the unchanged
// step at the next quantum.
func (k *Kernel) applySettings(now sim.Time, s cpu.Step, v cpu.Voltage) {
	s = s.Clamp()
	if !cpu.VoltageOK(s, v) {
		v = cpu.VHigh
	}
	if v != k.volt {
		k.voltChanges++
		k.telVolt.Inc()
		old := k.volt
		k.volt = v
		if v == cpu.VLow && old == cpu.VHigh {
			// Dropping: the rail stays high for the settle time.
			if _, err := k.eng.At(now+cpu.VoltageSettleDown, k.voltSettleFn); err != nil {
				k.fail(fmt.Errorf("scheduling voltage settle: %w", err))
			}
		} else {
			// Rising is effectively instantaneous.
			k.powerVolt = v
		}
	}
	if s != k.step {
		if k.cfg.Faults.ClockChangeFails() {
			k.failedChanges++
			k.telFailed.Inc()
		} else {
			k.speedChanges++
			k.telSpeed.Inc()
			k.stampResidency(now)
			k.step = s
			k.beginStall(now, cpu.ClockChangeStall+k.cfg.Faults.ExtraSettle())
		}
	}
	k.setPowerState(now)
}

// beginStall suspends execution while the PLL relocks, for the given stall
// time (the nominal 200 µs plus any injected extension).
func (k *Kernel) beginStall(now sim.Time, stall sim.Duration) {
	// Preempt whatever is running; progress stops during the stall.
	if k.cur != nil {
		k.eng.Cancel(k.completion)
		p := k.cur
		k.cur = nil
		if p.state == StateRunnable {
			k.runq = append(k.runq, p)
		}
	}
	k.stalling = true
	k.telStallUs.Add(int64(stall))
	k.setPowerState(now)
	if _, err := k.eng.At(now+stall, k.stallEndFn); err != nil {
		k.fail(fmt.Errorf("scheduling PLL relock: %w", err))
	}
}

// runqLen reports how many processes are queued.
func (k *Kernel) runqLen() int { return len(k.runq) - k.runqHead }

// runqPop removes and returns the process at the head of the run queue.
func (k *Kernel) runqPop() *Process {
	p := k.runq[k.runqHead]
	k.runq[k.runqHead] = nil
	k.runqHead++
	switch {
	case k.runqHead == len(k.runq):
		// Drained: reclaim the whole slice.
		k.runq = k.runq[:0]
		k.runqHead = 0
	case k.runqHead >= 64 && k.runqHead > len(k.runq)/2:
		// The dead prefix dominates: slide the live tail down.
		n := copy(k.runq, k.runq[k.runqHead:])
		for i := n; i < len(k.runq); i++ {
			k.runq[i] = nil
		}
		k.runq = k.runq[:n]
		k.runqHead = 0
	}
	return p
}

// dispatch picks the next runnable process and starts it, or enters nap.
// It must be called with no current process and no stall in progress.
func (k *Kernel) dispatch(now sim.Time) {
	for k.cur == nil {
		if k.runqLen() == 0 {
			// Idle: pid 0 runs and the power manager naps the core.
			k.telIdle.Inc()
			k.logDecision(SchedEntry{At: now, PID: 0, KHz: k.step.KHz()})
			k.setPowerState(now)
			return
		}
		p := k.runqPop()
		if p.state != StateRunnable {
			continue
		}
		if p.actionDone(now) {
			k.advanceProgram(p, now)
			if p.state != StateRunnable {
				continue
			}
		}
		k.cur = p
		k.lastAccount = now
		k.logDecision(SchedEntry{At: now, PID: p.pid, KHz: k.step.KHz()})
		k.setPowerState(now)
		k.armCompletion(p, now)
	}
}

// armCompletion schedules the event marking the end of cur's action. The
// callback is the process's prebound completeFn, so arming allocates no
// closure; staleness is handled by the k.cur != p guard plus the engine's
// handle cancellation.
func (k *Kernel) armCompletion(p *Process, now sim.Time) {
	d := p.timeToFinish(now, k.step)
	h, err := k.eng.At(now+d, p.completeFn)
	if err != nil {
		k.fail(fmt.Errorf("scheduling completion of %q: %w", p.name, err))
		return
	}
	k.completion = h
}

// onCompletion handles the end of p's current action.
func (k *Kernel) onCompletion(p *Process, t sim.Time) {
	k.account(t)
	if k.cur != p {
		return // stale event; the process was preempted
	}
	k.cur = nil
	k.advanceProgram(p, t)
	if p.state == StateRunnable {
		// Continue in the same quantum: the process keeps the CPU.
		k.cur = p
		k.lastAccount = t
		k.setPowerState(t)
		k.armCompletion(p, t)
		return
	}
	k.dispatch(t)
}

// maxProgramSteps bounds how many zero-length actions a program may return
// consecutively before the kernel declares it broken.
const maxProgramSteps = 10000

// advanceProgram fetches actions from p's program until one takes time or
// blocks, updating the process state accordingly.
func (k *Kernel) advanceProgram(p *Process, now sim.Time) {
	wasInProgram := k.inProgram
	k.inProgram = true
	defer func() { k.inProgram = wasInProgram }()
	for i := 0; ; i++ {
		if i >= maxProgramSteps {
			// Quarantine the broken program and abort the run: leaving it
			// runnable would wedge the scheduler.
			p.state = StateExited
			k.fail(fmt.Errorf("%w: %q", ErrProgramSpin, p.name))
			return
		}
		a := p.prog.Next(now)
		if a.SideEffect != nil {
			a.SideEffect(now)
		}
		p.kind = a.Kind
		switch a.Kind {
		case ActCompute:
			if a.Burst.Zero() {
				continue
			}
			p.exec = cpu.StartExecution(a.Burst)
			return
		case ActComputeFor:
			if a.Dur <= 0 {
				continue
			}
			p.remaining = a.Dur
			return
		case ActSpinUntil:
			if a.Until <= now {
				continue
			}
			p.until = a.Until
			return
		case ActSleepFor:
			if a.Dur <= 0 {
				continue
			}
			k.sleepUntil(p, now+a.Dur)
			return
		case ActSleepUntil:
			if a.Until <= now {
				continue
			}
			k.sleepUntil(p, a.Until)
			return
		case ActWaitEvent:
			p.state = StateWaiting
			return
		case ActExit:
			p.state = StateExited
			return
		default:
			p.state = StateExited
			k.fail(fmt.Errorf("%w: %q returned %v", ErrUnknownAction, p.name, a.Kind))
			return
		}
	}
}

func (k *Kernel) sleepUntil(p *Process, t sim.Time) {
	p.state = StateSleeping
	h, err := k.eng.At(t, p.wakeFn)
	if err != nil {
		k.fail(fmt.Errorf("scheduling wakeup of %q: %w", p.name, err))
		return
	}
	p.wake = h
}
