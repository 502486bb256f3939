package service

import (
	"context"
	"runtime"
	"testing"

	"clocksched"
)

// raceEnabled is set in race-detector builds.
var raceEnabled bool

// TestServiceJobAllocBytes guards a job's fixed cost on the wire, client
// and daemon together: a two-cell job submitted over HTTP, waited for and
// fetched must allocate at most limit bytes. Every second job repeats the
// one before it, so half the jobs are served from the cache. A job
// allocates about 71 KiB; the status request after Wait, a 64-slot event
// buffer per subscriber, a 4 KiB bufio.Writer per job journal, a read of
// the result file into memory per fetch and a 4 KiB event-scanner buffer
// took it to about 96 KiB.
func TestServiceJobAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	const jobs, limit = 40, 84 << 10
	_, c := newTestServer(t, Config{Workers: 1, MaxActiveJobs: 1})
	ctx := context.Background()
	run := func(i int) {
		grid := testGrid(2)
		grid.Seeds = []uint64{uint64(i/2*2 + 1), uint64(i/2*2 + 2)}
		st, err := c.Submit(ctx, clocksched.NewSweepSpec(grid))
		if err != nil {
			t.Fatal(err)
		}
		if st, err = c.Wait(ctx, st.ID, nil); err != nil || st.State != StateDone {
			t.Fatalf("job %s: %+v, %v", st.ID, st, err)
		}
		if _, err := c.ResultBytes(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ { // warm up pools, codecs and connections
		run(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 4; i < 4+jobs; i++ {
		run(i)
	}
	runtime.ReadMemStats(&after)
	if perJob := (after.TotalAlloc - before.TotalAlloc) / jobs; perJob > limit {
		t.Errorf("a two-cell job allocates %d KiB, want at most %d KiB", perJob>>10, limit>>10)
	} else {
		t.Logf("a two-cell job allocates %d KiB (limit %d KiB)", perJob>>10, limit>>10)
	}
}
