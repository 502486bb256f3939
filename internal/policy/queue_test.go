package policy

import (
	"fmt"
	"sort"
	"testing"

	"clocksched/internal/cpu"
	"clocksched/internal/sim"
)

// refJob is one job of refQueue: zooJob as far as queue bookkeeping goes.
type refJob struct {
	id          int
	cycles      int64
	due         sim.Time
	overdue     bool
	synthesized bool
}

// refQueue is a reference for the zoo job queue written the
// straightforward way: retire re-slices past drained jobs, which sheds
// capacity from the front of the slice. The scheduler compacts in place
// instead and must keep exactly the same jobs.
type refQueue struct {
	jobs    []refJob
	expired int
}

func (q *refQueue) insert(j refJob) {
	at := sort.Search(len(q.jobs), func(i int) bool { return q.jobs[i].due > j.due })
	q.jobs = append(q.jobs, refJob{})
	copy(q.jobs[at+1:], q.jobs[at:])
	q.jobs[at] = j
}

func (q *refQueue) complete(id int) {
	for i, j := range q.jobs {
		if j.id == id {
			q.jobs = append(q.jobs[:i], q.jobs[i+1:]...)
			return
		}
	}
}

func (q *refQueue) retire(cycles int64) {
	for len(q.jobs) > 0 && cycles > 0 {
		if q.jobs[0].cycles > cycles {
			q.jobs[0].cycles -= cycles
			return
		}
		cycles -= q.jobs[0].cycles
		q.jobs = q.jobs[1:]
	}
}

func (q *refQueue) markExpired(now sim.Time) {
	for i := range q.jobs {
		if q.jobs[i].due > now {
			break
		}
		if !q.jobs[i].overdue {
			q.jobs[i].overdue = true
			q.expired++
		}
	}
}

func (q *refQueue) dropSynthesized() {
	kept := q.jobs[:0]
	for _, j := range q.jobs {
		if !j.synthesized {
			kept = append(kept, j)
		}
	}
	q.jobs = kept
}

// queueTracker counts how often a job queue's backing array is replaced
// and the largest capacity and length it reaches.
type queueTracker struct {
	base           any
	reallocs       int
	maxCap, maxLen int
}

func trackQueue[T any](tr *queueTracker, jobs []T) {
	if c := cap(jobs); c > 0 {
		if p := &jobs[:c][c-1]; tr.base != any(p) {
			tr.base = any(p)
			tr.reallocs++
		}
	}
	tr.maxCap = max(tr.maxCap, cap(jobs))
	tr.maxLen = max(tr.maxLen, len(jobs))
}

// check fails the test if the queue reallocated more than a growing slice
// would, or outgrew twice its peak length.
func (tr *queueTracker) check(t *testing.T, what string) {
	t.Helper()
	if tr.reallocs > 12 {
		t.Errorf("%s: queue reallocated %d times (peak length %d)", what, tr.reallocs, tr.maxLen)
	}
	if tr.maxCap > 2*tr.maxLen+8 {
		t.Errorf("%s: queue capacity %d for peak length %d", what, tr.maxCap, tr.maxLen)
	}
}

const longRunQuanta = 2500

func TestZooQueueLongRunMatchesReference(t *testing.T) {
	for _, algo := range []ZooAlgo{AlgoOA, AlgoAVR, AlgoBKP} {
		for _, app := range []bool{false, true} {
			appFrom := 0
			if app {
				appFrom = longRunQuanta/3 + 1
			}
			t.Run(fmt.Sprintf("%s/app=%v", algo, app), func(t *testing.T) {
				zooLongRun(t, algo, appFrom)
			})
		}
	}
	t.Run("DEADLINE/app=true", func(t *testing.T) { zooLongRun(t, AlgoDeadline, 1) })
}

// zooLongRun drives a zoo scheduler for longRunQuanta quanta of random
// utilization and clock steps, with application submissions and
// completions from quantum appFrom on (never when appFrom is 0), and
// checks its queue against refQueue after every quantum.
func zooLongRun(t *testing.T, algo ZooAlgo, appFrom int) {
	rng := sim.NewRNG(15)
	z, err := NewZooScheduler(algo, 5)
	if err != nil {
		t.Fatal(err)
	}
	var ref refQueue
	var tr queueTracker
	for q := 1; q <= longRunQuanta; q++ {
		now := sim.Time(q) * sim.Time(sim.Quantum)
		if appFrom > 0 && q >= appFrom {
			for n := rng.Int63n(3); n > 0; n-- {
				cycles := 20_000 + rng.Int63n(800_000)
				due := now + sim.Time(1+rng.Int63n(30))*sim.Time(sim.Quantum)
				if !z.sawApp {
					ref.dropSynthesized()
				}
				id := z.Submit(cycles, due)
				ref.insert(refJob{id: id, cycles: cycles, due: due})
			}
			if rng.Bool(0.2) {
				id := z.nextID - int(rng.Int63n(4))
				z.Complete(id)
				ref.complete(id)
			}
		}
		util := int(rng.Int63n(FullUtil + 1))
		step := cpu.Step(rng.Int63n(cpu.NumSteps))
		z.OnQuantum(now, util, step, cpu.VHigh)
		cycles := int64(util) * int64(z.Quantum) / FullUtil * step.KHz() / 1000
		ref.retire(cycles)
		if algo != AlgoDeadline && !z.sawApp && cycles > 0 {
			ref.insert(refJob{id: z.nextID, cycles: cycles, due: now + sim.Time(5*int64(z.Quantum)), synthesized: true})
		}
		ref.markExpired(now)
		trackQueue(&tr, z.jobs)

		if z.Pending() != len(ref.jobs) || z.Expired != ref.expired {
			t.Fatalf("quantum %d: pending %d expired %d, reference %d and %d",
				q, z.Pending(), z.Expired, len(ref.jobs), ref.expired)
		}
		for i, j := range z.jobs {
			if r := ref.jobs[i]; j.id != r.id || j.cycles != r.cycles || j.due != r.due ||
				j.overdue != r.overdue || j.synthesized != r.synthesized {
				t.Fatalf("quantum %d: job %d = %+v, reference %+v", q, i, j, r)
			}
		}
	}
	if tr.maxLen < 2 || appFrom > 0 && (ref.expired == 0 || tr.maxLen < 4) {
		t.Fatalf("run too gentle to exercise the queue: %d expired, peak %d pending", ref.expired, tr.maxLen)
	}
	tr.check(t, string(algo))
}
