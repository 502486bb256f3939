package clocksched

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// shardSpec is a small mixed grid: 2 workloads × 2 policies × 3 seeds.
func shardSpec(t *testing.T) SweepSpec {
	t.Helper()
	return NewSweepSpec(SweepConfig{
		Workloads: []Workload{MPEG, RectWave},
		Policies:  []Policy{mustPolicy(t, "constant", nil), mustPolicy(t, "past-peg-peg", nil)},
		Seeds:     []uint64{1, 2, 3},
		Duration:  time.Second,
		FailFast:  true,
	})
}

func TestSpecNumCellsAndShardBounds(t *testing.T) {
	spec := shardSpec(t)
	if n := spec.NumCells(); n != 12 {
		t.Fatalf("NumCells = %d, want 12", n)
	}
	if _, err := spec.Shard(-1, 3); err == nil {
		t.Error("negative lo accepted")
	}
	if _, err := spec.Shard(0, 13); err == nil {
		t.Error("hi past the grid accepted")
	}
	if _, err := spec.Shard(5, 5); err == nil {
		t.Error("empty shard accepted")
	}
	sub, err := spec.Shard(4, 9)
	if err != nil {
		t.Fatal(err)
	}
	subCfg, err := sub.Config()
	if err != nil {
		t.Fatal(err)
	}
	if len(subCfg.Cells) != 5 || sub.NumCells() != 5 {
		t.Fatalf("shard has %d cells (NumCells %d), want 5", len(subCfg.Cells), sub.NumCells())
	}
	if sub.SimVersion != spec.SimVersion || !sub.FailFast || !subCfg.FailFast {
		t.Errorf("shard dropped shared spec fields: %+v", sub)
	}
	// The sub-spec must run the same cells the full grid would expand to,
	// in grid order.
	all := gridOf(t, spec)
	for i, c := range subCfg.Cells {
		if newCellSpec(c) != newCellSpec(all[4+i]) {
			t.Errorf("shard cell %d = %+v, want %+v", i, c, all[4+i])
		}
	}
	// A shard of a shard narrows the range within the parent grid.
	subsub, err := sub.Shard(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r := subsub.Range; r == nil || r.Lo != 5 || r.Hi != 7 {
		t.Errorf("shard [1, 3) of shard [4, 9) has range %+v, want [5, 7)", r)
	}
	if _, err := sub.Shard(0, 6); err == nil {
		t.Error("shard past a ranged spec's cells accepted")
	}
}

// gridOf expands spec's whole grid, in grid order.
func gridOf(t *testing.T, spec SweepSpec) []Config {
	t.Helper()
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	return cellsOf(cfg)
}

// cellsOf expands cfg's grid into its cells, in grid order.
func cellsOf(cfg SweepConfig) []Config {
	var cells []Config
	cfg.eachCell(func(c Config) { cells = append(cells, c) })
	return cells
}

// TestSpecRangeRefused: a range that does not fit its grid, or one on an
// explicit-cells spec, fails Config with an error naming the range and
// the grid size — not ErrVersionMismatch — and counts no cells.
func TestSpecRangeRefused(t *testing.T) {
	explicit := NewSweepSpec(SweepConfig{Cells: []Config{{Seed: 1}, {Seed: 2}}})
	for _, tc := range []struct {
		spec   SweepSpec
		lo, hi int
		want   string
	}{
		{shardSpec(t), -1, 3, "range [-1, 3) out of grid [0, 12)"},
		{shardSpec(t), 0, 13, "range [0, 13) out of grid [0, 12)"},
		{shardSpec(t), 5, 5, "range [5, 5) out of grid [0, 12)"},
		{shardSpec(t), 6, 2, "range [6, 2) out of grid [0, 12)"},
		{explicit, 0, 1, "range [0, 1) on an explicit grid of 2 cells"},
	} {
		spec := tc.spec
		spec.Range = &CellRange{Lo: tc.lo, Hi: tc.hi}
		_, err := spec.Config()
		if err == nil || errors.Is(err, ErrVersionMismatch) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("range [%d, %d): Config error %v, want one naming %q", tc.lo, tc.hi, err, tc.want)
		}
		if n := spec.NumCells(); n != 0 {
			t.Errorf("range [%d, %d): NumCells = %d, want 0", tc.lo, tc.hi, n)
		}
	}
}

// TestShardSpecSizeIndependentOfCells: an axis spec's shard is the parent
// spec plus its range, however many cells the shard covers, so its JSON
// grows with the axes alone — from 40 to 400 seeds, every shard adds only
// the range field to the parent's bytes.
func TestShardSpecSizeIndependentOfCells(t *testing.T) {
	for _, seeds := range []int{40, 400} {
		cfg, err := Table2Config(1, seeds)
		if err != nil {
			t.Fatal(err)
		}
		spec := NewSweepSpec(cfg)
		parent, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		total := spec.NumCells()
		for _, r := range [][2]int{{0, 1}, {0, total / 4}, {total / 4, total}, {0, total}} {
			sub, err := spec.Shard(r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(sub)
			if err != nil {
				t.Fatal(err)
			}
			field := fmt.Sprintf(`,"range":{"lo":%d,"hi":%d}`, r[0], r[1])
			if len(b) != len(parent)+len(field) {
				t.Errorf("%d seeds: shard [%d, %d) is %d bytes, want the parent's %d plus %d for its range",
					seeds, r[0], r[1], len(b), len(parent), len(field))
			}
		}
	}
}

func TestSpecDefaultAxes(t *testing.T) {
	// An all-default spec is one cell, matching SweepConfig.grid's
	// single-default-axis expansion.
	spec := NewSweepSpec(SweepConfig{Duration: time.Second})
	if n := spec.NumCells(); n != 1 {
		t.Fatalf("NumCells = %d, want 1", n)
	}
	sub, err := spec.Shard(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	subCfg, err := sub.Config()
	if err != nil {
		t.Fatal(err)
	}
	if len(subCfg.Cells) != 1 || subCfg.Cells[0].Duration != time.Second {
		t.Fatalf("default-axes shard = %+v", subCfg.Cells)
	}
}

// TestSpecShardMatchesGrid: sharding a whole spec and mapping its cells
// back to Configs reproduces the grid's cells exactly, for axis-built and
// explicit specs, and NumCells agrees with GridSize.
func TestSpecShardMatchesGrid(t *testing.T) {
	pol, faults, wd := mustPolicy(t, "past-peg-peg", nil), &FaultPlan{ClockChangeFailProb: 0.01}, &WatchdogConfig{Window: 30}
	for _, cfg := range []SweepConfig{
		{Workloads: []Workload{MPEG, RectWave}, Policies: []Policy{pol, {}}, Seeds: []uint64{1, 2, 3},
			Duration: time.Second, DeadlineSlack: time.Millisecond, CaptureTrace: true, Faults: faults, Watchdog: wd},
		{Policies: []Policy{pol}, Duration: time.Second},
		{Cells: []Config{{Workload: Web, Policy: pol, Seed: 4}, {Workload: MPEG, Seed: 9, Faults: faults, Watchdog: wd}}},
	} {
		want := cellsOf(cfg)
		spec := NewSweepSpec(cfg)
		if n, g := spec.NumCells(), cfg.GridSize(); n != g || n != len(want) {
			t.Fatalf("NumCells = %d, GridSize = %d, grid has %d cells", n, g, len(want))
		}
		sub, err := spec.Shard(0, spec.NumCells())
		if err != nil {
			t.Fatal(err)
		}
		subCfg, err := sub.Config()
		if err != nil {
			t.Fatal(err)
		}
		if len(subCfg.Cells) != len(want) {
			t.Fatalf("whole-grid shard runs %d cells, grid has %d", len(subCfg.Cells), len(want))
		}
		for i, got := range subCfg.Cells {
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("cell %d = %+v, grid has %+v", i, got, want[i])
			}
		}
	}
}

// TestShardMergeByteIdentical is the sharding correctness bar: running the
// grid shard by shard and merging yields bytes identical to one
// uninterrupted sweep of the whole spec.
func TestShardMergeByteIdentical(t *testing.T) {
	spec := shardSpec(t)
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 2
	serial, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeSweepResult(serial)
	if err != nil {
		t.Fatal(err)
	}

	for _, stride := range []int{1, 5, 12} {
		total := spec.NumCells()
		var shards []*SweepResult
		for lo := 0; lo < total; lo += stride {
			hi := min(lo+stride, total)
			sub, err := spec.Shard(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			// The shard spec crosses the wire as JSON, as a peer gets it.
			b, err := json.Marshal(sub)
			if err != nil {
				t.Fatal(err)
			}
			var got SweepSpec
			if err := json.Unmarshal(b, &got); err != nil {
				t.Fatal(err)
			}
			subCfg, err := got.Config()
			if err != nil {
				t.Fatal(err)
			}
			res, err := Sweep(context.Background(), subCfg)
			if err != nil {
				t.Fatal(err)
			}
			// Round-trip through the wire form, as the fabric does.
			b, err = EncodeSweepResult(res)
			if err != nil {
				t.Fatal(err)
			}
			back, err := DecodeSweepResult(b)
			if err != nil {
				t.Fatal(err)
			}
			shards = append(shards, back)
		}
		merged, err := MergeShardResults(spec, shards)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EncodeSweepResult(merged)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("stride %d: merged shards differ from the serial sweep", stride)
		}
		// The merged grid keeps its axis shape for CellAt.
		if c := merged.CellAt(1, 1, 2); c == nil || c.Config.Workload != RectWave || c.Config.Seed != 3 {
			t.Errorf("stride %d: merged CellAt(1,1,2) = %+v", stride, c)
		}
	}
}

func TestMergeShardResultsValidates(t *testing.T) {
	spec := shardSpec(t)
	sub, err := spec.Shard(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	subCfg, err := sub.Config()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sweep(context.Background(), subCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeShardResults(spec, []*SweepResult{res}); err == nil {
		t.Error("merge accepted 4 of 12 cells")
	}
	if _, err := MergeShardResults(spec, []*SweepResult{res, nil, res}); err == nil {
		t.Error("merge accepted a nil shard")
	}
}

// TestCellSpecMatchesDecodedCells runs cells that differ in one field each
// — defaults left unset, a registry policy, a zero fault plan, a watchdog,
// a slack — through the canonical encoding: every decoded cell must match
// its own spec cell and no other.
func TestCellSpecMatchesDecodedCells(t *testing.T) {
	base := Config{Workload: RectWave, Policy: mustPolicy(t, "past-peg-peg", nil), Seed: 1, Duration: time.Second}
	cells := []Config{{Seed: 1, Duration: time.Second}, base, base, base, base, base}
	cells[2].Policy = mustPolicy(t, "past-peg-peg", map[string]float64{"lo_percent": 90})
	cells[3].Faults = &FaultPlan{}
	cells[4].Watchdog = &WatchdogConfig{Window: 30}
	cells[5].DeadlineSlack = 50 * time.Millisecond
	spec := NewSweepSpec(SweepConfig{Cells: cells})
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeSweepResult(res)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSweepResult(b)
	if err != nil {
		t.Fatal(err)
	}
	for i, cs := range spec.Cells {
		for j, cell := range dec.Cells {
			if got := cs.Matches(cell.Config); got != (i == j) {
				t.Errorf("spec cell %d Matches decoded cell %d = %v", i, j, got)
			}
		}
	}
}
