package clocksched

// Shard-scoped sweep specs. The distributed sweep fabric decomposes one
// SweepSpec into contiguous runs of grid cells, ships each run to a peer
// daemon as a self-contained SweepSpec, and stitches the returned results
// back into the full grid. A shard of an axis-built spec is the parent
// spec with a Range naming its cells, so its size does not grow with the
// grid; a shard of an explicit-cells spec (a fleet) is a slice of the
// parent's cells. Either way the peer runs the shard as an explicit grid
// of exactly the cells a full run would produce at those positions,
// resolving defaults the same way a local run does, and
// MergeShardResults restores the original axis dimensions — so
// EncodeSweepResult of the merged result is byte-identical to an
// uninterrupted serial run of the whole spec, whatever mix of peers (or
// local fallback) computed the pieces.

import "fmt"

// NumCells reports the spec's grid size: the axis cross product, the
// explicit Cells length, or a valid Range's length; zero when the Range
// does not fit. It does not check the version stamp — counting cells is
// shape arithmetic, not execution.
func (s SweepSpec) NumCells() int {
	switch {
	case s.checkRange() != nil:
		return 0
	case s.Range != nil:
		return s.Range.Hi - s.Range.Lo
	case len(s.Cells) > 0:
		return len(s.Cells)
	}
	return s.axisCells()
}

// Shard returns the sub-spec covering grid cells [lo, hi), carrying the
// parent's version stamp, cell settings and failure-handling knobs. An
// axis-built parent keeps its axes and gains a Range, in O(axes) bytes
// whatever the grid size; a ranged parent narrows its Range; an
// explicit-cells parent keeps Cells[lo:hi]. Running the shard anywhere
// produces exactly the cells a full run would produce at those grid
// positions.
func (s SweepSpec) Shard(lo, hi int) (SweepSpec, error) {
	n := s.NumCells()
	if lo < 0 || hi > n || lo >= hi {
		return SweepSpec{}, fmt.Errorf("clocksched: shard [%d, %d) out of grid [0, %d)", lo, hi, n)
	}
	sub := s
	switch {
	case len(s.Cells) > 0:
		sub.Cells = s.Cells[lo:hi]
	case s.Range != nil:
		sub.Range = &CellRange{Lo: s.Range.Lo + lo, Hi: s.Range.Lo + hi}
	default:
		sub.Range = &CellRange{Lo: lo, Hi: hi}
	}
	return sub, nil
}

// MergeShardResults stitches per-shard results — contiguous, in grid
// order, jointly covering the spec's whole grid — back into the full-grid
// SweepResult, restoring the spec's axis dimensions so CellAt and the
// canonical encoding behave exactly as after a local run. Shard telemetry
// is summed; it is runtime provenance and never crosses the canonical
// encoding anyway.
func MergeShardResults(spec SweepSpec, shards []*SweepResult) (*SweepResult, error) {
	cfg, err := spec.config()
	if err != nil {
		return nil, err
	}
	total := cfg.GridSize()
	nw, np, ns := cfg.eachCell(nil)
	merged := &SweepResult{
		Cells: make([]SweepCell, 0, total),
		nw:    nw, np: np, ns: ns,
	}
	for i, sh := range shards {
		if sh == nil {
			return nil, fmt.Errorf("clocksched: merging shard %d: nil result", i)
		}
		merged.Cells = append(merged.Cells, sh.Cells...)
		t := &merged.Telemetry
		t.PeakBusy = max(t.PeakBusy, sh.Telemetry.PeakBusy)
		t.Workers = max(t.Workers, sh.Telemetry.Workers)
		t.Ran += sh.Telemetry.Ran
		t.Cached += sh.Telemetry.Cached
		t.Failed += sh.Telemetry.Failed
		t.Skipped += sh.Telemetry.Skipped
		t.Replayed += sh.Telemetry.Replayed
		t.Retried += sh.Telemetry.Retried
	}
	if len(merged.Cells) != total {
		return nil, fmt.Errorf("clocksched: merged %d cells, grid needs %d", len(merged.Cells), total)
	}
	return merged, nil
}
