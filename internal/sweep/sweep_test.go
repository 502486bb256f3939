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

// intCells is a test grid of int-valued cells: cell i runs run(ctx, i,
// attempt), keeps the value it returns, caches it as JSON under keys[i]
// (no keys: no caching), and records its outcome.
type intCells struct {
	keys []string
	run  func(ctx context.Context, i, attempt int) (int, error)
	vals []int
	outs []Outcome
}

// newIntCells is an n-cell grid whose cells run run.
func newIntCells(n int, run func(ctx context.Context, i, attempt int) (int, error)) *intCells {
	return &intCells{run: run, vals: make([]int, n), outs: make([]Outcome, n)}
}

// keyed gives cell i the key fmt.Sprintf(format, i).
func (c *intCells) keyed(format string) *intCells {
	c.keys = make([]string, len(c.vals))
	for i := range c.keys {
		c.keys[i] = fmt.Sprintf(format, i)
	}
	return c
}

func (c *intCells) Key(i int) string {
	if c.keys == nil {
		return ""
	}
	return c.keys[i]
}

func (c *intCells) Run(ctx context.Context, i, attempt int) (err error) {
	c.vals[i], err = c.run(ctx, i, attempt)
	return err
}

func (c *intCells) Encode(i int) ([]byte, error) { return json.Marshal(c.vals[i]) }
func (c *intCells) Decode(i int, b []byte) error { return json.Unmarshal(b, &c.vals[i]) }
func (c *intCells) Done(i int, o Outcome)        { c.outs[i] = o }

// sweep runs the grid through Run.
func (c *intCells) sweep(ctx context.Context, opts Options) (PoolStats, error) {
	return Run(ctx, len(c.vals), c, opts)
}

// putInt stores v under key as JSON.
func putInt(c *Cache, key string, v int) error {
	_, err := c.Put(key, func() ([]byte, error) { return json.Marshal(v) })
	return err
}

// getInt reads key's entry back as an int.
func getInt(c *Cache, key string) (v int, ok bool, err error) {
	_, ok, err = c.Get(key, func(b []byte) error { return json.Unmarshal(b, &v) })
	return v, ok, err
}

func TestRunMergesInGridOrder(t *testing.T) {
	const n = 64
	cells := newIntCells(n, func(_ context.Context, i, _ int) (int, error) {
		// Stagger completions so late-index cells often finish first.
		time.Sleep(time.Duration((n-i)%7) * time.Millisecond)
		return i * 10, nil
	})
	if _, err := cells.sweep(context.Background(), Options{Workers: 8}); err != nil {
		t.Fatal(err)
	}
	for i, o := range cells.outs {
		if o.Err != nil || cells.vals[i] != i*10 {
			t.Fatalf("cell %d = %+v, value %d", i, o, cells.vals[i])
		}
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	var cur, peak atomic.Int64
	cells := newIntCells(32, func(context.Context, int, int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		return 0, nil
	})
	if _, err := cells.sweep(context.Background(), Options{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Errorf("peak concurrency %d with 3 workers", p)
	}
}

func TestRunCollectsAllErrors(t *testing.T) {
	boom := errors.New("boom")
	cells := newIntCells(4, func(_ context.Context, i, _ int) (int, error) {
		switch i {
		case 1:
			return 0, boom
		case 2:
			return 0, fmt.Errorf("other")
		}
		return i + 1, nil
	})
	_, err := cells.sweep(context.Background(), Options{Workers: 2})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("joined error %v should include boom", err)
	}
	if cells.vals[0] != 1 || cells.vals[3] != 4 || cells.outs[0].Err != nil || cells.outs[3].Err != nil {
		t.Error("healthy cells missing")
	}
	if cells.outs[1].Err == nil || cells.outs[2].Err == nil {
		t.Error("failed cells lost their errors")
	}
}

func TestRunFailFast(t *testing.T) {
	boom := errors.New("boom")
	var ranLater atomic.Bool
	cells := newIntCells(40, func(_ context.Context, i, _ int) (int, error) {
		if i == 0 {
			return 0, boom
		}
		time.Sleep(time.Millisecond)
		if i > 20 {
			ranLater.Store(true)
		}
		return i, nil
	})
	_, err := cells.sweep(context.Background(), Options{Workers: 1, FailFast: true})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	skipped := 0
	for _, o := range cells.outs {
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
	cells := newIntCells(30, func(_ context.Context, i, _ int) (int, error) {
		if i == 2 {
			cancel()
		}
		return i, nil
	})
	if _, err := cells.sweep(ctx, Options{Workers: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunProgress(t *testing.T) {
	// Callbacks may run concurrently and out of order, but each done count
	// must be reported exactly once with the right total.
	var mu sync.Mutex
	seen := map[int]int{}
	cells := newIntCells(9, func(_ context.Context, i, _ int) (int, error) { return i, nil })
	_, err := cells.sweep(context.Background(), Options{
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
		cells := newIntCells(8, func(_ context.Context, i, _ int) (int, error) { return i, nil })
		_, err := cells.sweep(context.Background(), Options{
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
	if err := putInt(c, "warm", 7); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	cells := newIntCells(4, func(_ context.Context, i, _ int) (int, error) {
		switch i {
		case 0:
			t.Error("warm cell ran")
		case 3:
			return 0, boom
		}
		return i, nil
	})
	cells.keys = []string{"warm", "cold-a", "cold-b", ""}
	stats, err := cells.sweep(context.Background(), Options{
		Workers:   3,
		Cache:     c,
		Telemetry: reg,
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if cells.vals[0] != 7 {
		t.Errorf("warm cell decoded %d, want 7", cells.vals[0])
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
	stats, err := Run(context.Background(), 0, newIntCells(0, nil), Options{})
	if err != nil || stats != (PoolStats{}) {
		t.Fatalf("stats=%+v err=%v", stats, err)
	}
}

func TestCacheHitsAndLRU(t *testing.T) {
	c, err := NewCache(2, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := putInt(c, fmt.Sprintf("k%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	// k0 is evicted (capacity 2), k1 and k2 live.
	if _, ok, _ := getInt(c, "k0"); ok {
		t.Error("k0 survived eviction")
	}
	v, ok, err := getInt(c, "k2")
	if err != nil || !ok || v != 2 {
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
	if err := putInt(c1, "answer", 42); err != nil {
		t.Fatal(err)
	}
	// A fresh cache over the same directory — a later process — hits disk.
	c2, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	v, ok, err := getInt(c2, "answer")
	if err != nil || !ok || v != 42 {
		t.Fatalf("disk layer: %v/%v/%v", v, ok, err)
	}
	if s := c2.Stats(); s.DiskHits != 1 {
		t.Errorf("stats %+v", s)
	}
	// Second read is a memory hit.
	if _, ok, _ := getInt(c2, "answer"); !ok {
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
	if _, hit, err := c.get(key, &file, func([]byte) error { return nil }); err != nil || hit || file != c.path(key) {
		t.Fatalf("a miss: hit %v, err %v, file %q, want %q", hit, err, file, c.path(key))
	}
	derived := file
	if _, err := c.put(key, &file, func() ([]byte, error) { return []byte("7"), nil }); err != nil {
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
	if err := putInt(c, "k", 7); err != nil {
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
	if _, ok, err := getInt(cold, "k"); ok || err != nil {
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
	if err := putInt(cold, "k", 8); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := getInt(cold, "k"); err != nil || !ok || v != 8 {
		t.Fatalf("post-quarantine readback: %v/%v/%v", v, ok, err)
	}
}

func TestRunUsesCache(t *testing.T) {
	c, err := NewCache(8, "")
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	mk := func() *intCells {
		return newIntCells(4, func(_ context.Context, i, _ int) (int, error) {
			runs.Add(1)
			return i, nil
		}).keyed("cell-%d")
	}
	if _, err := mk().sweep(context.Background(), Options{Workers: 2, Cache: c}); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 4 {
		t.Fatalf("cold sweep ran %d cells", runs.Load())
	}
	warm := mk()
	if _, err := warm.sweep(context.Background(), Options{Workers: 2, Cache: c}); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 4 {
		t.Fatalf("warm sweep re-ran cells: %d total runs", runs.Load())
	}
	for i, o := range warm.outs {
		if !o.Cached || warm.vals[i] != i {
			t.Fatalf("cell %d = %+v, value %d", i, o, warm.vals[i])
		}
	}
}
