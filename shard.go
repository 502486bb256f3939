package clocksched

// Shard-scoped sweep specs. The distributed sweep fabric decomposes one
// SweepSpec into contiguous runs of grid cells, ships each run to a peer
// daemon as a self-contained explicit-cells SweepSpec, and stitches the
// returned results back into the full grid. The decomposition is exact by
// construction: a shard's cells are the same CellSpec projections the
// peer's own grid expansion would produce, the peer resolves defaults the
// same way a local run does, and MergeShardResults restores the original
// axis dimensions — so EncodeSweepResult of the merged result is
// byte-identical to an uninterrupted serial run of the whole spec,
// whatever mix of peers (or local fallback) computed the pieces.

import "fmt"

// cellSpecs expands the spec's grid into per-cell specs in grid order:
// SweepConfig's own expansion, projected back through the lossless
// newCellSpec/config pair.
func (s SweepSpec) cellSpecs() []CellSpec {
	cfg := s.config()
	cells := make([]CellSpec, 0, cfg.GridSize())
	cfg.eachCell(func(c Config) { cells = append(cells, newCellSpec(c)) })
	return cells
}

// NumCells reports the spec's grid size: the axis cross product, or the
// explicit Cells length. It does not check the version stamp — counting
// cells is shape arithmetic, not execution.
func (s SweepSpec) NumCells() int {
	return s.config().GridSize()
}

// Shard returns the sub-spec covering grid cells [lo, hi) as an
// explicit-cells spec carrying the parent's version stamp and
// failure-handling knobs. Running the shard anywhere produces exactly the
// cells a full run would produce at those grid positions.
func (s SweepSpec) Shard(lo, hi int) (SweepSpec, error) {
	cells := s.cellSpecs()
	if lo < 0 || hi > len(cells) || lo >= hi {
		return SweepSpec{}, fmt.Errorf("clocksched: shard [%d, %d) out of grid [0, %d)", lo, hi, len(cells))
	}
	return SweepSpec{
		SimVersion:  s.SimVersion,
		Cells:       cells[lo:hi],
		FailFast:    s.FailFast,
		CellTimeout: s.CellTimeout,
		Retries:     s.Retries,
		RetryBase:   s.RetryBase,
	}, nil
}

// MergeShardResults stitches per-shard results — contiguous, in grid
// order, jointly covering the spec's whole grid — back into the full-grid
// SweepResult, restoring the spec's axis dimensions so CellAt and the
// canonical encoding behave exactly as after a local run. Shard telemetry
// is summed; it is runtime provenance and never crosses the canonical
// encoding anyway.
func MergeShardResults(spec SweepSpec, shards []*SweepResult) (*SweepResult, error) {
	cfg := spec.config()
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
