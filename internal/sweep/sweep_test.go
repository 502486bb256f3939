package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"clocksched/internal/telemetry"
)

// jsonCodec round-trips int values for cache tests.
func jsonCodec() Codec {
	return Codec{
		Encode: func(v any) ([]byte, error) { return json.Marshal(v) },
		Decode: func(b []byte) (any, error) {
			var v int
			if err := json.Unmarshal(b, &v); err != nil {
				return nil, err
			}
			return v, nil
		},
	}
}

func TestRunMergesInGridOrder(t *testing.T) {
	const n = 64
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Run: func(context.Context) (any, error) {
			// Stagger completions so late-index cells often finish first.
			time.Sleep(time.Duration((n-i)%7) * time.Millisecond)
			return i * 10, nil
		}}
	}
	out, err := Run(context.Background(), jobs, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out {
		if o.Err != nil || o.Value.(int) != i*10 {
			t.Fatalf("cell %d = %+v", i, o)
		}
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	var cur, peak atomic.Int64
	jobs := make([]Job, 32)
	for i := range jobs {
		jobs[i] = Job{Run: func(context.Context) (any, error) {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			cur.Add(-1)
			return nil, nil
		}}
	}
	if _, err := Run(context.Background(), jobs, Options{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Errorf("peak concurrency %d with 3 workers", p)
	}
}

func TestRunCollectsAllErrors(t *testing.T) {
	boom := errors.New("boom")
	jobs := []Job{
		{Run: func(context.Context) (any, error) { return 1, nil }},
		{Run: func(context.Context) (any, error) { return nil, boom }},
		{Run: func(context.Context) (any, error) { return nil, fmt.Errorf("other") }},
		{Run: func(context.Context) (any, error) { return 4, nil }},
	}
	out, err := Run(context.Background(), jobs, Options{Workers: 2})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("joined error %v should include boom", err)
	}
	if out[0].Value.(int) != 1 || out[3].Value.(int) != 4 {
		t.Error("healthy cells missing")
	}
	if out[1].Err == nil || out[2].Err == nil {
		t.Error("failed cells lost their errors")
	}
}

func TestRunFailFast(t *testing.T) {
	boom := errors.New("boom")
	var ranLater atomic.Bool
	jobs := make([]Job, 40)
	for i := range jobs {
		switch {
		case i == 0:
			jobs[i] = Job{Run: func(context.Context) (any, error) { return nil, boom }}
		default:
			jobs[i] = Job{Run: func(ctx context.Context) (any, error) {
				time.Sleep(time.Millisecond)
				if i > 20 {
					ranLater.Store(true)
				}
				return i, nil
			}}
		}
	}
	out, err := Run(context.Background(), jobs, Options{Workers: 1, FailFast: true})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	skipped := 0
	for _, o := range out {
		if errors.Is(o.Err, ErrSkipped) {
			skipped++
		}
	}
	if skipped == 0 {
		t.Error("fail-fast ran the whole grid")
	}
	if ranLater.Load() {
		t.Error("cells far past the failure still ran")
	}
}

func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs := make([]Job, 30)
	for i := range jobs {
		jobs[i] = Job{Run: func(context.Context) (any, error) {
			if i == 2 {
				cancel()
			}
			return i, nil
		}}
	}
	_, err := Run(ctx, jobs, Options{Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunProgress(t *testing.T) {
	// Callbacks may run concurrently and out of order, but each done count
	// must be reported exactly once with the right total.
	var mu sync.Mutex
	seen := map[int]int{}
	jobs := make([]Job, 9)
	for i := range jobs {
		jobs[i] = Job{Run: func(context.Context) (any, error) { return i, nil }}
	}
	_, err := Run(context.Background(), jobs, Options{
		Workers: 4,
		OnProgress: func(done, total int) {
			if total != 9 {
				t.Errorf("total = %d, want 9", total)
			}
			mu.Lock()
			seen[done]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 9 {
		t.Fatalf("%d distinct done counts, want 9", len(seen))
	}
	for d := 1; d <= 9; d++ {
		if seen[d] != 1 {
			t.Errorf("done=%d reported %d times", d, seen[d])
		}
	}
}

// TestRunProgressOutsideLock is the regression test for the progress
// deadlock: OnProgress used to be invoked while holding the pool mutex, so a
// callback that blocked until another cell completed could never be
// satisfied — the completing worker needed the same mutex to finish. With
// the callback outside the lock, a worker blocked in OnProgress must not
// stop other workers from completing cells.
func TestRunProgressOutsideLock(t *testing.T) {
	release := make(chan struct{}, 1)
	var once sync.Once
	done := make(chan struct{})
	go func() {
		defer close(done)
		jobs := make([]Job, 8)
		for i := range jobs {
			jobs[i] = Job{Run: func(context.Context) (any, error) { return i, nil }}
		}
		_, err := Run(context.Background(), jobs, Options{
			Workers: 4,
			OnProgress: func(d, total int) {
				// The first callback to arrive parks until some other
				// worker's callback runs. Under the old
				// callback-inside-lock behaviour both needed the pool
				// mutex, so this deadlocked.
				var first bool
				once.Do(func() { first = true })
				if first {
					<-release
				} else {
					select {
					case release <- struct{}{}:
					default:
					}
				}
			},
		})
		if err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("sweep deadlocked: progress callback blocked the pool")
	}
}

// TestRunTelemetryAndStats drives parallel workers against one shared
// registry (the -race soundness case) and checks the pool metrics and
// PoolStats agree with the outcomes.
func TestRunTelemetryAndStats(t *testing.T) {
	reg := telemetry.New()
	c, err := NewCache(64, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("warm", 7, jsonCodec()); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	jobs := []Job{
		{Key: "warm", Run: func(context.Context) (any, error) { t.Error("warm cell ran"); return nil, nil }},
		{Key: "cold-a", Run: func(context.Context) (any, error) { return 1, nil }},
		{Key: "cold-b", Run: func(context.Context) (any, error) { return 2, nil }},
		{Run: func(context.Context) (any, error) { return nil, boom }},
	}
	var stats PoolStats
	_, err = Run(context.Background(), jobs, Options{
		Workers:   3,
		Cache:     c,
		Codec:     jsonCodec(),
		Telemetry: reg,
		Stats:     &stats,
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	want := PoolStats{Workers: 3, PeakBusy: stats.PeakBusy, Ran: 2, Cached: 1, Failed: 1}
	if stats.PeakBusy < 1 || stats.PeakBusy > 3 {
		t.Errorf("peak busy = %d, want 1..3", stats.PeakBusy)
	}
	if stats != want {
		t.Errorf("stats = %+v, want %+v", stats, want)
	}
	s := reg.Snapshot()
	if s.Counters[telemetry.MSweepCellsRun] != 2 ||
		s.Counters[telemetry.MSweepCellsCached] != 1 ||
		s.Counters[telemetry.MSweepCellsFailed] != 1 {
		t.Errorf("cell counters: %v", s.Counters)
	}
	if s.Counters[telemetry.MCacheHits] != 1 || s.Counters[telemetry.MCacheMisses] != 2 {
		t.Errorf("cache counters: %v", s.Counters)
	}
	// The busy gauge's final value depends on Set interleaving near the
	// end of the sweep; it must only end within the pool's bounds.
	if got := s.Gauges[telemetry.MSweepWorkersBusy]; got < 0 || got >= 3 {
		t.Errorf("busy gauge = %v after sweep, want within [0, workers)", got)
	}
	if got := s.Gauges[telemetry.MSweepWorkersPeak]; got != float64(stats.PeakBusy) {
		t.Errorf("peak gauge = %v, stats peak %d", got, stats.PeakBusy)
	}
	if h := s.Histograms[telemetry.MSweepCellSeconds]; h.Count != 4 {
		t.Errorf("cell timer observed %d cells, want 4", h.Count)
	}
}

func TestRunEmptyGrid(t *testing.T) {
	out, err := Run(context.Background(), nil, Options{})
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestCacheHitsAndLRU(t *testing.T) {
	c, err := NewCache(2, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Put(fmt.Sprintf("k%d", i), i, jsonCodec()); err != nil {
			t.Fatal(err)
		}
	}
	// k0 is evicted (capacity 2), k1 and k2 live.
	if _, _, ok, _ := c.Get("k0", jsonCodec()); ok {
		t.Error("k0 survived eviction")
	}
	v, _, ok, err := c.Get("k2", jsonCodec())
	if err != nil || !ok || v.(int) != 2 {
		t.Fatalf("k2 = %v/%v/%v", v, ok, err)
	}
	s := c.Stats()
	if s.Entries != 2 || s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats %+v", s)
	}
}

func TestCacheDiskLayer(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Put("answer", 42, jsonCodec()); err != nil {
		t.Fatal(err)
	}
	// A fresh cache over the same directory — a later process — hits disk.
	c2, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	v, _, ok, err := c2.Get("answer", jsonCodec())
	if err != nil || !ok || v.(int) != 42 {
		t.Fatalf("disk layer: %v/%v/%v", v, ok, err)
	}
	if s := c2.Stats(); s.DiskHits != 1 {
		t.Errorf("stats %+v", s)
	}
	// Second read is a memory hit.
	if _, _, ok, _ := c2.Get("answer", jsonCodec()); !ok {
		t.Error("promotion to memory failed")
	}
	if s := c2.Stats(); s.DiskHits != 1 || s.Hits != 2 {
		t.Errorf("stats after promotion %+v", s)
	}
}

// TestCachePath: a key's disk file is named as it always was,
// dir/<hex sha256 of the key>.cell with dir cleaned as filepath.Join
// cleans it, and the name of a hex-sha256 key costs one allocation. A
// cell that misses and is then put derives the name once.
func TestCachePath(t *testing.T) {
	key := strings.Repeat("0123456789abcdef", 4)
	sum := sha256.Sum256([]byte(key))
	base := t.TempDir()
	for _, dir := range []string{base, base + "/", base + "/./sub/../x//", "rel/dir", "./rel", "/"} {
		c := &Cache{dir: dir, dirPrefix: strings.TrimSuffix(filepath.Join(dir, "x"), "x")}
		if got, want := c.path(key), filepath.Join(dir, hex.EncodeToString(sum[:])+".cell"); got != want {
			t.Errorf("dir %q: path %q, want %q", dir, got, want)
		}
	}
	c, err := NewCache(0, base)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { c.path(key) }); n != 1 {
		t.Errorf("path makes %v allocations, want 1", n)
	}
	var file string
	if _, _, hit, err := c.get(key, &file, jsonCodec()); err != nil || hit || file != c.path(key) {
		t.Fatalf("a miss: hit %v, err %v, file %q, want %q", hit, err, file, c.path(key))
	}
	derived := file
	if _, err := c.put(key, &file, 7, jsonCodec()); err != nil {
		t.Fatal(err)
	}
	if unsafe.StringData(file) != unsafe.StringData(derived) {
		t.Error("put derived the file name again")
	}
	if _, err := os.Stat(derived); err != nil {
		t.Errorf("put did not write the entry to %s: %v", derived, err)
	}
}

func TestCacheCorruptDiskEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("k", 7, jsonCodec()); err != nil {
		t.Fatal(err)
	}
	// Find the entry file and corrupt it, then read through a cold cache.
	files, err := filepath.Glob(filepath.Join(dir, "*.cell"))
	if err != nil || len(files) != 1 {
		t.Fatalf("files %v err %v", files, err)
	}
	if err := os.WriteFile(files[0], []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	cold, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	cold.Instrument(reg)
	if _, _, ok, err := cold.Get("k", jsonCodec()); ok || err != nil {
		t.Fatalf("corrupt entry: ok=%v err=%v", ok, err)
	}
	// The corrupt file is quarantined — deleted so it cannot shadow a fresh
	// result — and counted, both in the stats and on the registry.
	if _, err := os.Stat(files[0]); !os.IsNotExist(err) {
		t.Errorf("corrupt entry file survived quarantine: %v", err)
	}
	if s := cold.Stats(); s.Corrupt != 1 || s.Misses != 1 {
		t.Errorf("stats %+v, want 1 corrupt + 1 miss", s)
	}
	if got := reg.Snapshot().Counters[telemetry.MCacheCorrupt]; got != 1 {
		t.Errorf("%s = %v, want 1", telemetry.MCacheCorrupt, got)
	}
	// After quarantine the key re-Puts cleanly and reads back.
	if _, err := cold.Put("k", 8, jsonCodec()); err != nil {
		t.Fatal(err)
	}
	if v, _, ok, err := cold.Get("k", jsonCodec()); err != nil || !ok || v.(int) != 8 {
		t.Fatalf("post-quarantine readback: %v/%v/%v", v, ok, err)
	}
}

func TestRunUsesCache(t *testing.T) {
	c, err := NewCache(8, "")
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	mk := func() []Job {
		jobs := make([]Job, 4)
		for i := range jobs {
			jobs[i] = Job{
				Key: fmt.Sprintf("cell-%d", i),
				Run: func(context.Context) (any, error) {
					runs.Add(1)
					return i, nil
				},
			}
		}
		return jobs
	}
	if _, err := Run(context.Background(), mk(), Options{Workers: 2, Cache: c, Codec: jsonCodec()}); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 4 {
		t.Fatalf("cold sweep ran %d cells", runs.Load())
	}
	out, err := Run(context.Background(), mk(), Options{Workers: 2, Cache: c, Codec: jsonCodec()})
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 4 {
		t.Fatalf("warm sweep re-ran cells: %d total runs", runs.Load())
	}
	for i, o := range out {
		if !o.Cached || o.Value.(int) != i {
			t.Fatalf("cell %d = %+v", i, o)
		}
	}
}

// TestRunRejectsCacheWithoutCodec: the cache stores bytes only, so a sweep
// handing Run a cache must say how its values encode.
func TestRunRejectsCacheWithoutCodec(t *testing.T) {
	c, err := NewCache(8, "")
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{{Key: "k", Run: func(context.Context) (any, error) { t.Error("cell ran"); return 1, nil }}}
	if _, err := Run(context.Background(), jobs, Options{Cache: c}); err == nil {
		t.Fatal("Run accepted a Cache without a Codec")
	}
}
