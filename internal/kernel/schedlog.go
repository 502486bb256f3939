package kernel

import (
	"fmt"
	"sort"
	"strings"

	"clocksched/internal/sim"
)

// This file provides the analysis side of the paper's process-logging
// facility (Section 4.3): "For each scheduling decision, we record the
// process identifier of the process being scheduled, the time at which it
// was scheduled (with microsecond resolution) and the current clock rate."
// LogStats digests that log the way the paper's post-processing did to
// produce the utilization plots and per-process breakdowns.

// ProcessShare is one process's slice of the scheduler's attention.
type ProcessShare struct {
	PID       int
	Name      string
	Decisions int          // times the scheduler picked it
	CPUTime   sim.Duration // busy time it accumulated
}

// LogStats summarizes a completed run's scheduler activity.
type LogStats struct {
	Decisions     int // total scheduling decisions, including idle picks
	IdleDecisions int // times pid 0 (idle) was picked
	Switches      int // decisions that changed the running pid
	Shares        []ProcessShare
	// RatesSeen lists the distinct clock rates (kHz) appearing in the
	// log, ascending.
	RatesSeen []int64
}

// logTally is the running digest of the scheduler log, updated as each
// decision is recorded so AnalyzeLog never needs the retained record list.
// It counts exactly the entries that survive the cap and the injected
// trace drops — the same population the old log-walking analysis saw.
type logTally struct {
	decisions int
	idle      int
	switches  int
	started   bool  // at least one decision noted (so lastPID is valid)
	lastPID   int   // pid of the previous decision
	perPID    []int // decision count per pid; index = pid (0 is idle)
	rates     []int64
}

func (t *logTally) note(e SchedEntry) {
	t.decisions++
	if e.PID == 0 {
		t.idle++
	}
	if !t.started || e.PID != t.lastPID {
		t.switches++
		t.lastPID = e.PID
		t.started = true
	}
	for len(t.perPID) <= e.PID {
		t.perPID = append(t.perPID, 0)
	}
	t.perPID[e.PID]++
	// At most NumSteps distinct rates ever appear; a linear scan of a
	// tiny slice beats a map allocation per run.
	for _, r := range t.rates {
		if r == e.KHz {
			return
		}
	}
	t.rates = append(t.rates, e.KHz)
}

// LogTotals returns the scheduler log's running totals — all decisions,
// idle picks and context switches — without building AnalyzeLog's
// per-process table.
func (k *Kernel) LogTotals() (decisions, idle, switches int) {
	t := &k.logStats
	return t.decisions, t.idle, t.switches
}

// AnalyzeLog digests the kernel's scheduler activity and process table. It
// is meaningful after Run, and works whether or not the full record list
// was retained (Config.RetainSchedLog).
func (k *Kernel) AnalyzeLog() LogStats {
	t := &k.logStats
	var st LogStats
	st.Decisions, st.IdleDecisions, st.Switches = k.LogTotals()
	for _, p := range k.procs {
		sh := ProcessShare{PID: p.pid, Name: p.name, CPUTime: p.cpuTime}
		if p.pid < len(t.perPID) {
			sh.Decisions = t.perPID[p.pid]
		}
		st.Shares = append(st.Shares, sh)
	}
	sort.Slice(st.Shares, func(i, j int) bool { return st.Shares[i].PID < st.Shares[j].PID })
	st.RatesSeen = append(st.RatesSeen, t.rates...)
	sort.Slice(st.RatesSeen, func(i, j int) bool { return st.RatesSeen[i] < st.RatesSeen[j] })
	return st
}

// Render formats the stats as a small report.
func (s LogStats) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scheduler log: %d decisions (%d idle), %d context switches\n",
		s.Decisions, s.IdleDecisions, s.Switches)
	for _, sh := range s.Shares {
		fmt.Fprintf(&b, "  pid %-3d %-14s %6d decisions  %v CPU\n",
			sh.PID, sh.Name, sh.Decisions, sh.CPUTime)
	}
	if len(s.RatesSeen) > 0 {
		fmt.Fprintf(&b, "  clock rates seen:")
		for _, r := range s.RatesSeen {
			fmt.Fprintf(&b, " %.1fMHz", float64(r)/1000)
		}
		b.WriteString("\n")
	}
	return b.String()
}
