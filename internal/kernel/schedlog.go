package kernel

// The paper's process-logging facility (Section 4.3): "For each scheduling
// decision, we record the process identifier of the process being
// scheduled, the time at which it was scheduled (with microsecond
// resolution) and the current clock rate." The kernel folds each recorded
// decision into running totals, so LogTotals never needs the retained
// record list.

// logTally is the running digest of the scheduler log, updated as each
// decision is recorded. It counts exactly the entries that survive the cap
// and the injected trace drops — the same population a walk of the
// retained log would see.
type logTally struct {
	decisions int
	idle      int
	switches  int
	started   bool // at least one decision noted (so lastPID is valid)
	lastPID   int  // pid of the previous decision
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
}

// LogTotals returns the scheduler log's running totals: all decisions,
// idle picks and context switches. It is meaningful after Run, and works
// whether or not the full record list was retained (Config.RetainSchedLog).
func (k *Kernel) LogTotals() (decisions, idle, switches int) {
	t := &k.logStats
	return t.decisions, t.idle, t.switches
}
