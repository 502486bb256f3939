package policy

import (
	"math"
	"sort"
)

// This file scores per-interval speed schedules at the trace level: job
// instances on a unit-interval grid, served earliest-deadline-first. The
// zoo experiment scores each policy's chosen steps with it, and the
// differential suite (differential_test.go) scores the trace-level
// replicas of the deadline-feasible family — AVR, OA and BKP — against
// the Li–Yao–Yuan oracle.

// feasibleJob is the mutable per-run view of an OracleJob.
type feasibleJob struct {
	release, due float64
	work, left   float64
	late         bool
}

func liveJobs(jobs []OracleJob) []feasibleJob {
	live := make([]feasibleJob, 0, len(jobs))
	for _, j := range jobs {
		if j.Work > 0 {
			live = append(live, feasibleJob{
				release: j.Release, due: j.Due, work: j.Work, left: j.Work,
			})
		}
	}
	sort.Slice(live, func(a, b int) bool {
		if live[a].due != live[b].due {
			return live[a].due < live[b].due
		}
		return live[a].release < live[b].release
	})
	return live
}

// TraceScore is a deadline-aware schedule score on a job instance.
type TraceScore struct {
	Energy     float64 // Σ work·speed², late work charged at full speed when makeup is set
	MissedWork float64 // work served after its deadline or never served
	LateJobs   int     // jobs that missed their deadline
	Jobs       int     // jobs in the instance
}

// ScoreSpeeds serves a job instance earliest-deadline-first at the given
// per-interval speeds and scores it in the trace energy model. Work served
// in its window costs speed²; when makeup is set, work served late — or
// still unserved at the end — is charged at full speed (speed 1, or the
// actual speed if higher), the cost of eventually doing it with no slack
// left. The oracle minimizes exactly this objective among miss-free
// schedules, so with makeup a score below the oracle's is impossible for
// feasible service and empirically hard even for deadline-missing
// policies — that gap is what the zoo experiment reports.
func ScoreSpeeds(jobs []OracleJob, speeds []float64, makeup bool) TraceScore {
	const residue = 1e-9 // below this, float accumulation, not a real miss
	live := liveJobs(jobs)
	sc := TraceScore{Jobs: len(live)}
	for i, s := range speeds {
		t := float64(i)
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
			if j.due <= t { // the whole interval lies past the deadline
				if amt > residue {
					sc.MissedWork += amt
					if !j.late {
						j.late = true
						sc.LateJobs++
					}
				}
				if makeup {
					sc.Energy += amt * math.Max(1, s) * math.Max(1, s)
					continue
				}
			}
			sc.Energy += amt * s * s
		}
	}
	for _, j := range live {
		if j.left > residue {
			sc.MissedWork += j.left
			if !j.late {
				sc.LateJobs++
			}
			if makeup {
				sc.Energy += j.left // × 1²
			}
		}
	}
	return sc
}
