package policy

import (
	"fmt"
	"math"
	"sort"

	"clocksched/internal/cpu"
	"clocksched/internal/sim"
)

// This file holds the kernel's deadline-driven speed policies. The first
// is the direction the paper's Conclusions point to as future work: "Our
// immediate future work is to provide 'deadline' mechanisms in Linux.
// These deadlines are not precisely the same mechanism needed in a true
// real-time O/S – in a RTOS, the application does not care if the
// deadline is reached early, while energy scheduling would prefer for the
// deadline to be met as late as possible." Applications submit (work,
// due-time) jobs, and at every quantum the scheduler picks the slowest
// clock step that still finishes every job by its deadline. That rule is
// Optimal Available (OA, YDS on the remaining work) of the speed-scaling
// literature, so the deadline mechanism is AlgoDeadline: OA fed by
// application deadlines only.
//
// The others are the deadline-feasible online family — OA, AVR, BKP —
// whose trace-level replicas the differential suite checks against the
// oracle. All of them share one job queue: per-quantum OnQuantum,
// application-submitted deadlines, and a retire estimate that drains work
// by observed busy cycles. Two sources feed the queue:
//
//   - Applications that advertise deadlines (the MPEG player) submit jobs
//     directly through the workload.DeadlineSink interface.
//   - On workloads with no deadline stream, OA, AVR and BKP turn each
//     quantum's observed busy cycles into a synthesized job due
//     SlackQuanta quanta later — the interval-scheduling assumption
//     (recent demand predicts imminent demand, and latency past a few
//     quanta is user-visible) expressed in the job vocabulary these
//     algorithms need. The first application submission permanently
//     switches the scheduler to the app stream and discards synthesized
//     jobs, so MPEG work is never double-counted. AlgoDeadline never
//     synthesizes: without an app stream it idles at the bottom step.
//
// The hardware's bounded step ladder voids the unbounded-speed feasibility
// theorem, so every rule pins the top step while any overdue job is
// pending: the work still has to be done (the application keeps computing
// it), and dropping it would leave no demand signal and strand the clock at
// the bottom while the application ran ever later.

// zooJob is one obligation tracked by a ZooScheduler.
type zooJob struct {
	id           int
	release, due sim.Time
	cycles       int64 // remaining (retire estimate)
	orig         int64 // as submitted; BKP's windowed density uses this
	overdue      bool
	synthesized  bool
}

// ZooAlgo selects the speed rule of a ZooScheduler.
type ZooAlgo string

const (
	AlgoOA  ZooAlgo = "OA"
	AlgoAVR ZooAlgo = "AVR"
	AlgoBKP ZooAlgo = "BKP"
	// AlgoDeadline is OA on application deadlines alone: the paper's
	// future-work deadline mechanism.
	AlgoDeadline ZooAlgo = "DEADLINE"
)

// ZooScheduler runs one of the deadline-driven rules as a kernel speed
// policy. It satisfies the kernel SpeedPolicy interface and the workload
// DeadlineSink interface.
type ZooScheduler struct {
	algo ZooAlgo
	// VoltageScale drops the core to 1.23 V when the chosen step allows.
	VoltageScale bool
	// Quantum must match the kernel's scheduling quantum.
	Quantum sim.Duration
	// SlackQuanta is the deadline slack granted to synthesized jobs
	// (unused by AlgoDeadline, which synthesizes none).
	SlackQuanta int

	jobs    []zooJob // sorted by due
	history []zooJob // BKP only: released-work records, window-pruned
	nextID  int
	sawApp  bool
	lastNow sim.Time

	// Expired counts jobs whose deadlines passed before completion.
	Expired int
}

// NewZooScheduler builds a scheduler for the given algorithm with the
// standard 10 ms quantum. slackQuanta must be positive; AlgoDeadline
// ignores it.
func NewZooScheduler(algo ZooAlgo, slackQuanta int) (*ZooScheduler, error) {
	switch algo {
	case AlgoDeadline:
		return NewDeadlineScheduler(), nil
	case AlgoOA, AlgoAVR, AlgoBKP:
	default:
		return nil, fmt.Errorf("policy: unknown zoo algorithm %q", algo)
	}
	if slackQuanta <= 0 {
		return nil, fmt.Errorf("policy: zoo slack must be positive quanta, got %d", slackQuanta)
	}
	return &ZooScheduler{algo: algo, Quantum: sim.Quantum, SlackQuanta: slackQuanta}, nil
}

// NewDeadlineScheduler returns the AlgoDeadline scheduler for the standard
// 10 ms quantum.
func NewDeadlineScheduler() *ZooScheduler {
	return &ZooScheduler{algo: AlgoDeadline, Quantum: sim.Quantum}
}

// ZooQueue keeps the arrays of a ZooScheduler's job queue and BKP history
// from one scheduler to the next. A caller that runs many schedulers one
// after another, like the simulator shell a sweep's cells run in, lends
// each new scheduler the arrays the last one grew, so its queue starts
// with their capacity instead of growing from empty. The zero value holds
// no arrays and is ready to use.
type ZooQueue struct {
	jobs, history []zooJob
	lent          *ZooScheduler
}

// Lend reclaims the arrays from the scheduler they were last lent to and
// hands them, emptied, to z. Only a scheduler with no arrays of its own —
// one that has never queued a job — borrows; any other keeps its own. The
// loan changes nothing z does: an empty queue with capacity behaves as the
// nil one a new scheduler starts with.
func (q *ZooQueue) Lend(z *ZooScheduler) {
	q.Reclaim()
	if z.jobs != nil || z.history != nil {
		return
	}
	z.jobs, z.history = q.jobs[:0], q.history[:0]
	q.jobs, q.history, q.lent = nil, nil, z
}

// Reclaim takes the arrays back, at the capacity the borrower grew them
// to. The borrower's run is over: it is left with an empty queue and no
// arrays, and q no longer references it.
func (q *ZooQueue) Reclaim() {
	z := q.lent
	if z == nil {
		return
	}
	q.jobs, q.history = z.jobs[:0], z.history[:0]
	z.jobs, z.history = nil, nil
	q.lent = nil
}

// Algo reports which rule the scheduler runs.
func (z *ZooScheduler) Algo() ZooAlgo { return z.algo }

// Pending returns the number of outstanding jobs.
func (z *ZooScheduler) Pending() int { return len(z.jobs) }

func (z *ZooScheduler) insert(j zooJob) {
	at := sort.Search(len(z.jobs), func(i int) bool { return z.jobs[i].due > j.due })
	z.jobs = append(z.jobs, zooJob{})
	copy(z.jobs[at+1:], z.jobs[at:])
	z.jobs[at] = j
	if z.algo == AlgoBKP {
		z.history = append(z.history, j)
	}
}

// Submit registers application work due at the given time (the
// workload.DeadlineSink interface) and returns a job id. A non-positive
// cycle count is legal and never constrains the speed. The first
// submission switches the scheduler to the application's deadline stream
// for good.
func (z *ZooScheduler) Submit(cycles int64, due sim.Time) int {
	if !z.sawApp {
		z.sawApp = true
		kept := z.jobs[:0]
		for _, j := range z.jobs {
			if !j.synthesized {
				kept = append(kept, j)
			}
		}
		z.jobs = kept
		z.history = z.history[:0]
	}
	z.nextID++
	if cycles <= 0 {
		return z.nextID
	}
	z.insert(zooJob{id: z.nextID, release: z.lastNow, due: due, cycles: cycles, orig: cycles})
	return z.nextID
}

// Complete removes a job the application has finished. Unknown ids are
// ignored (the retire estimate may have drained the job already).
func (z *ZooScheduler) Complete(id int) {
	for i, j := range z.jobs {
		if j.id == id {
			z.jobs = append(z.jobs[:i], z.jobs[i+1:]...)
			return
		}
	}
}

// retire deducts an estimate of the cycles executed during the last
// quantum from the earliest-due jobs: busy time × the clock rate that was
// in effect. The drained prefix is compacted away in place: re-slicing
// past it would shed capacity from the front and make every later insert
// reallocate the queue.
func (z *ZooScheduler) retire(utilPP10K int, s cpu.Step) {
	busyMicros := int64(utilPP10K) * int64(z.Quantum) / FullUtil
	cycles := busyMicros * s.KHz() / 1000
	done := 0
	for done < len(z.jobs) && cycles > 0 {
		if z.jobs[done].cycles > cycles {
			z.jobs[done].cycles -= cycles
			break
		}
		cycles -= z.jobs[done].cycles
		done++
	}
	if done > 0 {
		z.jobs = z.jobs[:copy(z.jobs, z.jobs[done:])]
	}
}

// synthesize turns the last quantum's observed busy cycles into a job due
// SlackQuanta quanta out. Only runs before any application submission,
// and never for AlgoDeadline.
func (z *ZooScheduler) synthesize(now sim.Time, utilPP10K int, s cpu.Step) {
	if z.algo == AlgoDeadline || z.sawApp || utilPP10K <= 0 {
		return
	}
	busyMicros := int64(utilPP10K) * int64(z.Quantum) / FullUtil
	cycles := busyMicros * s.KHz() / 1000
	if cycles <= 0 {
		return
	}
	z.nextID++
	z.insert(zooJob{
		id:          z.nextID,
		release:     now - sim.Time(z.Quantum),
		due:         now + sim.Time(int64(z.SlackQuanta)*int64(z.Quantum)),
		cycles:      cycles,
		orig:        cycles,
		synthesized: true,
	})
}

// markExpired flags jobs whose deadlines have passed. They stay pending —
// and pin the clock — until the application completes them or the retire
// estimate drains them.
func (z *ZooScheduler) markExpired(now sim.Time) {
	for i := range z.jobs {
		if z.jobs[i].due > now {
			break
		}
		if !z.jobs[i].overdue {
			z.jobs[i].overdue = true
			z.Expired++
		}
	}
}

// requiredKHz evaluates the algorithm's speed rule. Any overdue job
// demands the top step (the unbounded-speed regime is out of reach).
func (z *ZooScheduler) requiredKHz(now sim.Time) int64 {
	var need int64
	switch z.algo {
	case AlgoOA, AlgoDeadline:
		// Max density of remaining work over any deadline horizon: the
		// slowest rate that finishes every pending job, run back to
		// back, by its deadline.
		var cum int64
		for _, j := range z.jobs {
			cum += j.cycles
			horizon := int64(j.due - now)
			if horizon <= 0 {
				return cpu.MaxStep.KHz()
			}
			if n := (cum*1000 + horizon - 1) / horizon; n > need {
				need = n
			}
		}
	case AlgoAVR:
		// Sum of the active jobs' own densities.
		for _, j := range z.jobs {
			if int64(j.due-now) <= 0 {
				return cpu.MaxStep.KHz()
			}
			span := int64(j.due - j.release)
			if span <= 0 {
				span = 1
			}
			need += (j.orig*1000 + span - 1) / span
		}
	case AlgoBKP:
		// Windowed density with lookback memory: for each pending
		// deadline horizon Δ, count work released within the last
		// (e−1)·Δ — served or not — that is due inside the horizon.
		// The e in speed = e·w/(eΔ) cancels.
		var maxDue sim.Time
		for _, j := range z.jobs {
			if int64(j.due-now) <= 0 {
				return cpu.MaxStep.KHz()
			}
			if j.due > maxDue {
				maxDue = j.due
			}
		}
		if len(z.jobs) == 0 {
			z.history = z.history[:0]
			return 0
		}
		keepFrom := now - sim.Time(int64(math.Ceil((math.E-1)*float64(int64(maxDue-now)))))
		kept := z.history[:0]
		for _, h := range z.history {
			if h.release >= keepFrom {
				kept = append(kept, h)
			}
		}
		z.history = kept
		for _, j := range z.jobs {
			delta := int64(j.due - now)
			lo := now - sim.Time(int64(math.Ceil((math.E-1)*float64(delta))))
			var w int64
			for _, h := range z.history {
				if h.release >= lo && h.release <= now && h.due <= j.due {
					w += h.orig
				}
			}
			if n := (w*1000 + delta - 1) / delta; n > need {
				need = n
			}
		}
	}
	return need
}

// OnQuantum implements the kernel's SpeedPolicy interface.
func (z *ZooScheduler) OnQuantum(now sim.Time, utilPP10K int, cur cpu.Step, _ cpu.Voltage) (cpu.Step, cpu.Voltage) {
	z.retire(utilPP10K, cur)
	z.synthesize(now, utilPP10K, cur)
	z.markExpired(now)
	z.lastNow = now
	step := cpu.StepForKHz(z.requiredKHz(now))
	v := cpu.VHigh
	if z.VoltageScale && cpu.VoltageOK(step, cpu.VLow) {
		v = cpu.VLow
	}
	return step, v
}

// Name identifies the policy in the paper's style.
func (z *ZooScheduler) Name() string {
	vs := ""
	if z.VoltageScale {
		vs = ", voltage scaling"
	}
	if z.algo == AlgoDeadline {
		return "DEADLINE" + vs
	}
	return fmt.Sprintf("%s(slack=%d)%s", z.algo, z.SlackQuanta, vs)
}

// String summarizes the scheduler state for debugging.
func (z *ZooScheduler) String() string {
	return fmt.Sprintf("zoo{%s pending=%d expired=%d app=%v}",
		z.algo, len(z.jobs), z.Expired, z.sawApp)
}
