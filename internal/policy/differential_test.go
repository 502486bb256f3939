package policy

import (
	"math"
	"math/rand/v2"
	"testing"
)

// The randomized differential suite of ISSUE 8: the oracle is the
// instrument, and every other scheduler is measured against it. With
// unbounded speed every instance is feasible, so across seeded random
// instances the deadline-feasible family must (a) never miss a deadline
// and (b) never spend less energy than the oracle — a policy beating the
// oracle would disprove one implementation or the other.

// The deadline-feasible online speed-scaling family that Abousamra, Bunde
// and Pruhs compare experimentally — Average Rate (AVR, Yao–Demers–
// Shenker), Optimal Available (OA, Bansal–Kimbrel–Pruhs's name for the
// YDS-on-remaining-work heuristic), and BKP (Bansal–Kimbrel–Pruhs) — at
// the trace level: job instances on a unit-interval grid, per-interval
// speeds out. These replicas of the kernel policies in zoo.go let the
// suite check the algorithms' worst-case deadline guarantees exactly.
//
// The algorithms are defined in continuous time with unbounded speed. Here
// speed is recomputed at each interval boundary and held for the interval
// (releases and deadlines are integral, so nothing changes mid-interval),
// and each interval's speed additionally gets a criticality clamp — at
// least the remaining work due at the next boundary — so discretization
// can never turn a guaranteed-feasible schedule into a near miss. Speeds
// are uncapped (may exceed 1); capping voids the feasibility guarantee.

// runFeasible drives the shared quantum loop: at each interval boundary i
// the algorithm callback proposes a speed from the released-and-unfinished
// job set, the criticality clamp raises it to at least the work due by
// i+1, and earliest-deadline-first service consumes the capacity.
func runFeasible(jobs []OracleJob, n int,
	propose func(i int, live []feasibleJob) float64) []float64 {
	live := liveJobs(jobs)
	speeds := make([]float64, n)
	for i := 0; i < n; i++ {
		t := float64(i)
		s := propose(i, live)
		// Criticality clamp: everything released and due by the next
		// boundary must fit in this interval.
		urgent := 0.0
		for _, j := range live {
			if j.left > 0 && j.release <= t && j.due <= t+1 {
				urgent += j.left
			}
		}
		if urgent > s {
			s = urgent
		}
		speeds[i] = s
		// EDF service (live is due-sorted).
		cap := s
		for k := range live {
			if cap <= 0 {
				break
			}
			j := &live[k]
			if j.left <= 0 || j.release > t {
				continue
			}
			amt := math.Min(cap, j.left)
			j.left -= amt
			cap -= amt
		}
	}
	return speeds
}

// AVRSpeeds computes the Average Rate schedule: every job is run at its
// own density Work/(Due−Release) for its whole window, and the processor
// speed is the sum of the active densities. Feasible with EDF dispatch;
// at most 2^α-competitive in energy.
func AVRSpeeds(jobs []OracleJob, n int) []float64 {
	return runFeasible(jobs, n, func(i int, live []feasibleJob) float64 {
		t := float64(i)
		s := 0.0
		for _, j := range live {
			if j.release <= t && t < j.due {
				s += j.work / (j.due - j.release)
			}
		}
		return s
	})
}

// OASpeeds computes Optimal Available: at each boundary, run at the speed
// the optimal schedule would use if no further work ever arrived — the
// maximum density of remaining released work over any deadline horizon,
// max over deadlines d > t of (remaining work due by d)/(d − t). This is
// the same rule ZooScheduler's OA and deadline rules apply to kernel
// cycles.
func OASpeeds(jobs []OracleJob, n int) []float64 {
	return runFeasible(jobs, n, func(i int, live []feasibleJob) float64 {
		t := float64(i)
		s, cum := 0.0, 0.0
		for _, j := range live { // due-sorted: prefixes are horizons
			if j.left <= 0 || j.release > t {
				continue
			}
			cum += j.left
			if j.due > t {
				if d := cum / (j.due - t); d > s {
					s = d
				}
			}
		}
		return s
	})
}

// BKPSpeeds computes the Bansal–Kimbrel–Pruhs schedule: speed e·v(t),
// where v(t) is the maximum over look-ahead horizons t' > t of
// w(t, et−(e−1)t', t')/(e(t'−t)) and w(t, t₁, t₂) is the original work of
// jobs released in [t₁, t] with deadlines ≤ t₂ — a windowed density that
// remembers recently released work whether or not it has been served,
// which is what buys the constant competitive ratio. Only deadlines are
// candidate horizons (the maximum is attained there).
func BKPSpeeds(jobs []OracleJob, n int) []float64 {
	const e = math.E
	all := liveJobs(jobs)
	return runFeasible(jobs, n, func(i int, _ []feasibleJob) float64 {
		t := float64(i)
		best := 0.0
		for _, h := range all {
			if h.due <= t {
				continue
			}
			delta := h.due - t
			lo := t - (e-1)*delta
			w := 0.0
			for _, j := range all {
				if j.release <= t && j.release >= lo && j.due <= h.due {
					w += j.work
				}
			}
			// e · w/(e·Δ) = w/Δ.
			if d := w / delta; d > best {
				best = d
			}
		}
		return best
	})
}

func TestDifferentialOracleVsFeasibleFamily(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xD1FF, 0))
	algos := []struct {
		name   string
		speeds func([]OracleJob, int) []float64
	}{
		{"AVR", AVRSpeeds},
		{"OA", OASpeeds},
		{"BKP", BKPSpeeds},
	}
	const instances = 140
	for i := 0; i < instances; i++ {
		jobs := randomInstance(rng, 12)
		n := instanceHorizon(jobs)
		sched, err := OptimalSchedule(jobs)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if missed, late := VerifySchedule(jobs, sched); missed > 1e-6 || late != 0 {
			t.Fatalf("instance %d %+v: oracle misses %v work (%d jobs)", i, jobs, missed, late)
		}
		opt := sched.Energy()
		for _, a := range algos {
			speeds := a.speeds(jobs, n)
			sc := ScoreSpeeds(jobs, speeds, false)
			if sc.MissedWork > 1e-6 || sc.LateJobs != 0 {
				t.Fatalf("instance %d %+v: %s misses %v work (%d of %d jobs)",
					i, jobs, a.name, sc.MissedWork, sc.LateJobs, sc.Jobs)
			}
			if sc.Energy < opt-1e-6*(1+opt) {
				t.Fatalf("instance %d %+v: %s energy %v beats the oracle's %v",
					i, jobs, a.name, sc.Energy, opt)
			}
		}
	}
}

// TestDifferentialTraceInstances repeats the comparison on the agreeable
// instances the trace adapter produces (the taut-string code path), at
// trace-realistic sizes, with OptSpeeds in the lineup: on end-deadline
// instances the hull must tie the oracle, and with finite slack the
// oracle must still lower-bound everything.
func TestDifferentialTraceInstances(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x7ACE, 0))
	for trial := 0; trial < 40; trial++ {
		n := 20 + rng.IntN(200)
		util := make([]float64, n)
		for i := range util {
			if rng.Float64() < 0.4 {
				continue
			}
			util[i] = rng.Float64()
		}
		slack := 1 + rng.IntN(5)
		jobs := OracleFromTrace(util, slack)
		if len(jobs) == 0 {
			continue
		}
		sched, err := OptimalSchedule(jobs)
		if err != nil {
			t.Fatal(err)
		}
		if missed, late := VerifySchedule(jobs, sched); missed > 1e-6 || late != 0 {
			t.Fatalf("trial %d: oracle misses %v work (%d jobs)", trial, missed, late)
		}
		opt := sched.Energy()
		for _, a := range []struct {
			name   string
			speeds []float64
		}{
			{"AVR", AVRSpeeds(jobs, n)},
			{"OA", OASpeeds(jobs, n)},
			{"BKP", BKPSpeeds(jobs, n)},
		} {
			sc := ScoreSpeeds(jobs, a.speeds, false)
			if sc.MissedWork > 1e-6 || sc.LateJobs != 0 {
				t.Fatalf("trial %d: %s misses %v work (%d jobs)",
					trial, a.name, sc.MissedWork, sc.LateJobs)
			}
			if sc.Energy < opt-1e-6*(1+opt) {
				t.Fatalf("trial %d: %s energy %v beats oracle %v", trial, a.name, sc.Energy, opt)
			}
		}
		// OptSpeeds solves the slack=∞ relaxation, so its energy lower-
		// bounds even the oracle — and ties it when slack is infinite.
		speeds, err := OptSpeeds(util, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		res, err := EvaluateSpeeds(util, speeds, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.Energy > opt+1e-6*(1+opt) {
			t.Fatalf("trial %d: hull relaxation energy %v above slack-%d oracle %v",
				trial, res.Energy, slack, opt)
		}
	}
}

// TestOptSpeedsFloorFeasibility is the ISSUE 8 floor-feasibility property
// test for OptSpeeds: at every interval boundary the remaining capacity
// must cover the remaining arrivals (no interior deficit that later
// segments cannot absorb), and the schedule must complete the whole trace
// (equal final totals, i.e. no missed work under deferral). The audit
// conclusion this pins: the minSpeed clamp only ever raises a hull slope,
// which adds service capacity, so no deficit carry exists to fix; the >1
// clamp can shave at most float ulps. Were either conclusion wrong, this
// test is the one that fails.
func TestOptSpeedsFloorFeasibility(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xF100A, 0))
	for trial := 0; trial < 120; trial++ {
		n := 10 + rng.IntN(300)
		util := make([]float64, n)
		for i := range util {
			switch {
			case rng.Float64() < 0.35: // idle
			case rng.Float64() < 0.2: // saturated
				util[i] = 1
			default:
				util[i] = rng.Float64()
			}
		}
		minSpeed := []float64{1e-6, 0.01, 0.2861, 0.9}[rng.IntN(4)]
		speeds, err := OptSpeeds(util, minSpeed)
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for _, u := range util {
			total += u
		}
		// Remaining capacity must dominate remaining arrivals at every
		// boundary, scanned from the trace end.
		capacity, arrivals := 0.0, 0.0
		for i := n - 1; i >= 0; i-- {
			capacity += speeds[i]
			arrivals += util[i]
			if capacity < arrivals-1e-6*(1+total) {
				t.Fatalf("trial %d (floor %v): deficit at boundary %d: capacity %v < arrivals %v",
					trial, minSpeed, i, capacity, arrivals)
			}
		}
		res, err := EvaluateSpeeds(util, speeds, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.MissedWork > 1e-6*(1+total) {
			t.Fatalf("trial %d (floor %v): OptSpeeds leaves %v work unserved",
				trial, minSpeed, res.MissedWork)
		}
	}
}

// TestOptSpeedsDifferentialVsOracle is the companion differential test:
// on the end-deadline instance OptSpeeds claims to solve, its schedule's
// energy must match the oracle's optimum (the floor's contribution made
// negligible), and must never fall below it — below the optimum would
// mean OptSpeeds under-serves.
func TestOptSpeedsDifferentialVsOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xD1FF2, 0))
	for trial := 0; trial < 60; trial++ {
		n := 10 + rng.IntN(200)
		util := make([]float64, n)
		for i := range util {
			if rng.Float64() < 0.3 {
				continue
			}
			util[i] = rng.Float64()
		}
		jobs := OracleFromTrace(util, -1)
		if len(jobs) == 0 {
			continue
		}
		sched, err := OptimalSchedule(jobs)
		if err != nil {
			t.Fatal(err)
		}
		opt := sched.Energy()
		speeds, err := OptSpeeds(util, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		res, err := EvaluateSpeeds(util, speeds, true)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Energy-opt) > 1e-6*(1+opt) {
			t.Fatalf("trial %d: OptSpeeds energy %v != oracle %v", trial, res.Energy, opt)
		}
	}
}
