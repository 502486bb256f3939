package policy

import (
	"fmt"
	"sort"

	"clocksched/internal/cpu"
	"clocksched/internal/sim"
)

// This file implements the direction the paper's Conclusions point to as
// future work: "Our immediate future work is to provide 'deadline'
// mechanisms in Linux. These deadlines are not precisely the same mechanism
// needed in a true real-time O/S – in a RTOS, the application does not care
// if the deadline is reached early, while energy scheduling would prefer
// for the deadline to be met as late as possible."
//
// DeadlineScheduler is that mechanism: applications submit (work, due-time)
// jobs, and at every quantum the scheduler picks the *slowest* clock step
// that still finishes every job by its deadline — meeting deadlines as late
// as possible, which is exactly where the energy is.

// DeadlineJob is one submitted obligation.
type DeadlineJob struct {
	ID int
	// Cycles is the job's remaining work, expressed in worst-case
	// (fastest-step) processor cycles; memory-heavy work costs the most
	// cycles at the top step, so this is the conservative estimate.
	Cycles int64
	// Due is the absolute completion deadline.
	Due sim.Time
	// Overdue marks a job whose deadline passed while still pending. The
	// work still has to be done (the application keeps computing it), so
	// an overdue job pins the clock at the top step until the
	// application reports completion — dropping it silently would leave
	// no demand signal and strand the clock at the bottom while the
	// application ran ever later.
	Overdue bool
}

// DeadlineScheduler is a kernel speed policy driven by application-supplied
// deadlines instead of utilization prediction. It satisfies the kernel's
// SpeedPolicy interface.
type DeadlineScheduler struct {
	jobs   []DeadlineJob // sorted by Due
	nextID int
	// VoltageScale drops the core to 1.23 V when the chosen step allows.
	VoltageScale bool
	// Quantum must match the kernel's scheduling quantum; the default is
	// the Linux 10 ms.
	Quantum sim.Duration

	// Expired counts jobs whose deadlines passed before completion.
	Expired int
}

// NewDeadlineScheduler returns a scheduler for the standard 10 ms quantum.
func NewDeadlineScheduler() *DeadlineScheduler {
	return &DeadlineScheduler{Quantum: sim.Quantum}
}

// Submit registers work that must finish by due and returns a job id. A
// non-positive cycle count or an id of already-passed work is legal and
// simply never constrains the speed.
func (d *DeadlineScheduler) Submit(cycles int64, due sim.Time) int {
	d.nextID++
	if cycles <= 0 {
		return d.nextID
	}
	job := DeadlineJob{ID: d.nextID, Cycles: cycles, Due: due}
	at := sort.Search(len(d.jobs), func(i int) bool { return d.jobs[i].Due > due })
	d.jobs = append(d.jobs, DeadlineJob{})
	copy(d.jobs[at+1:], d.jobs[at:])
	d.jobs[at] = job
	return d.nextID
}

// Complete removes a job the application has finished (whether or not the
// scheduler's own estimate had retired it). Unknown ids are ignored.
func (d *DeadlineScheduler) Complete(id int) {
	for i, j := range d.jobs {
		if j.ID == id {
			d.jobs = append(d.jobs[:i], d.jobs[i+1:]...)
			return
		}
	}
}

// Pending returns the number of outstanding jobs.
func (d *DeadlineScheduler) Pending() int { return len(d.jobs) }

// retire deducts an estimate of the cycles executed during the last quantum
// from the earliest-due jobs: busy time × the clock rate that was in
// effect. The drained prefix is compacted away in place: re-slicing past
// it would shed capacity from the front and make every later Submit
// reallocate the queue.
func (d *DeadlineScheduler) retire(utilPP10K int, s cpu.Step) {
	busyMicros := int64(utilPP10K) * int64(d.Quantum) / FullUtil
	cycles := busyMicros * s.KHz() / 1000
	done := 0
	for done < len(d.jobs) && cycles > 0 {
		if d.jobs[done].Cycles > cycles {
			d.jobs[done].Cycles -= cycles
			break
		}
		cycles -= d.jobs[done].Cycles
		done++
	}
	if done > 0 {
		d.jobs = d.jobs[:copy(d.jobs, d.jobs[done:])]
	}
}

// markExpired flags jobs whose deadlines have passed. They stay pending —
// and pin the clock — until the application completes them or the retire
// estimate drains them.
func (d *DeadlineScheduler) markExpired(now sim.Time) {
	for i := range d.jobs {
		if d.jobs[i].Due > now {
			break // sorted by due: nothing later is expired either
		}
		if !d.jobs[i].Overdue {
			d.jobs[i].Overdue = true
			d.Expired++
		}
	}
}

// RequiredKHz returns the minimum clock rate that completes every pending
// job by its deadline, assuming the processor runs the jobs back to back:
// the maximum over deadlines d of (cycles due by d) / (d − now). Any
// overdue job demands the top step.
func (d *DeadlineScheduler) RequiredKHz(now sim.Time) int64 {
	var needKHz int64
	var cum int64
	for _, j := range d.jobs {
		cum += j.Cycles
		horizon := int64(j.Due - now)
		if horizon <= 0 {
			return cpu.MaxStep.KHz()
		}
		// kHz = cycles×1000 / µs, rounded up.
		need := (cum*1000 + horizon - 1) / horizon
		if need > needKHz {
			needKHz = need
		}
	}
	return needKHz
}

// OnQuantum implements the kernel's SpeedPolicy interface.
func (d *DeadlineScheduler) OnQuantum(now sim.Time, utilPP10K int, cur cpu.Step, _ cpu.Voltage) (cpu.Step, cpu.Voltage) {
	d.retire(utilPP10K, cur)
	d.markExpired(now)
	step := cpu.StepForKHz(d.RequiredKHz(now))
	v := cpu.VHigh
	if d.VoltageScale && cpu.VoltageOK(step, cpu.VLow) {
		v = cpu.VLow
	}
	return step, v
}

// Name identifies the policy.
func (d *DeadlineScheduler) Name() string {
	if d.VoltageScale {
		return "DEADLINE, voltage scaling"
	}
	return "DEADLINE"
}

// String summarizes the scheduler state for debugging.
func (d *DeadlineScheduler) String() string {
	return fmt.Sprintf("deadline{pending=%d expired=%d}", len(d.jobs), d.Expired)
}
