package clocksched

import (
	"bytes"
	"context"
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
	if len(sub.Cells) != 5 {
		t.Fatalf("shard has %d cells, want 5", len(sub.Cells))
	}
	if sub.SimVersion != spec.SimVersion || !sub.FailFast {
		t.Errorf("shard dropped shared spec fields: %+v", sub)
	}
	// Explicit-cells sub-spec must reproduce the same cells the full grid
	// would expand to, in grid order.
	all := spec.cellSpecs()
	for i, cs := range sub.Cells {
		if cs != all[4+i] {
			t.Errorf("shard cell %d = %+v, want %+v", i, cs, all[4+i])
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
	if len(sub.Cells) != 1 || sub.Cells[0].Duration != Duration(time.Second) {
		t.Fatalf("default-axes shard = %+v", sub.Cells)
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
			subCfg, err := sub.Config()
			if err != nil {
				t.Fatal(err)
			}
			res, err := Sweep(context.Background(), subCfg)
			if err != nil {
				t.Fatal(err)
			}
			// Round-trip through the wire form, as the fabric does.
			b, err := EncodeSweepResult(res)
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
