package sweep

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clocksched/internal/journal"
	"clocksched/internal/telemetry"
)

// Codec serializes cached values. The cache stores encoded bytes — in
// memory and on disk — and decodes on every hit, so a hit can never alias a
// value another cell is still mutating, and a disk entry written by one
// process is readable by the next. The cache itself is codec-free: each Get
// and Put names the codec of its value type, so one cache (and one disk
// directory) can hold entries of several types under disjoint keys.
type Codec struct {
	Encode func(v any) ([]byte, error)
	Decode func(b []byte) (any, error)
}

// CacheStats counts cache traffic.
type CacheStats struct {
	Hits     int // served from memory or disk
	DiskHits int // subset of Hits that came off disk
	Misses   int
	Corrupt  int   // disk entries that failed to decode and were deleted
	Entries  int   // live in-memory entries
	Bytes    int64 // encoded bytes held in memory
}

// Cache is a content-addressed byte store: a bounded in-memory LRU of
// encoded entries with an optional on-disk layer. It is safe for concurrent
// use.
type Cache struct {
	dir string // "" disables the disk layer
	// dirPrefix is what precedes a file name in a path under dir: dir
	// cleaned, as filepath.Join cleans it whatever the one-element name it
	// joins, and a separator.
	dirPrefix  string
	maxEntries int
	fs         journal.FS // injectable write/rename surface; nil = real filesystem

	mu      sync.Mutex
	ll      *list.List // front = most recently used
	entries map[string]*list.Element
	stats   CacheStats

	// tel is swapped atomically so Get/Put read it without the LRU lock;
	// nil (the default) means no instrumentation and no clock reads.
	tel atomic.Pointer[cacheTel]
}

// cacheTel bundles the cache's pre-resolved telemetry instruments.
type cacheTel struct {
	hits, misses, diskHits, corrupt *telemetry.Counter
	getHit, getMiss, getDisk, putH  *telemetry.Histogram
}

// Instrument attaches cache-traffic counters and Get/Put latency histograms
// to the registry (sweep_cache_*). A nil registry detaches them; a nil cache
// is a no-op, so callers can instrument unconditionally.
func (c *Cache) Instrument(reg *telemetry.Registry) {
	if c == nil {
		return
	}
	if reg == nil {
		c.tel.Store(nil)
		return
	}
	c.tel.Store(&cacheTel{
		hits:     reg.Counter(telemetry.MCacheHits),
		misses:   reg.Counter(telemetry.MCacheMisses),
		diskHits: reg.Counter(telemetry.MCacheDiskHits),
		corrupt:  reg.Counter(telemetry.MCacheCorrupt),
		getHit:   reg.Histogram(telemetry.MCacheGetHitSecs, telemetry.SecondsBuckets),
		getMiss:  reg.Histogram(telemetry.MCacheGetMissSecs, telemetry.SecondsBuckets),
		getDisk:  reg.Histogram(telemetry.MCacheGetDiskSecs, telemetry.SecondsBuckets),
		putH:     reg.Histogram(telemetry.MCachePutSecs, telemetry.SecondsBuckets),
	})
}

// SetFS routes the cache's disk writes (entry files and their renames)
// through the injectable filesystem surface. Call it before the cache sees
// traffic — it exists so the chaos tests can make the disk layer
// misbehave; production caches leave the default (real) filesystem.
func (c *Cache) SetFS(fs journal.FS) {
	if c == nil {
		return
	}
	c.fs = fs
}

// cacheEntry is one LRU slot.
type cacheEntry struct {
	key string
	b   []byte
}

// DefaultCacheEntries bounds the in-memory layer when the caller passes a
// non-positive size.
const DefaultCacheEntries = 1024

// NewCache builds a cache holding at most maxEntries encoded entries in
// memory (non-positive selects DefaultCacheEntries). A non-empty dir adds a
// persistent disk layer under it — one file per key, written atomically —
// created on demand.
func NewCache(maxEntries int, dir string) (*Cache, error) {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheEntries
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("sweep: cache dir: %w", err)
		}
	}
	return &Cache{
		dir:        dir,
		dirPrefix:  strings.TrimSuffix(filepath.Join(dir, "x"), "x"),
		maxEntries: maxEntries,
		ll:         list.New(),
		entries:    map[string]*list.Element{},
	}, nil
}

// Get looks the key up in memory, then on disk, and decodes the entry with
// codec. A disk hit is promoted into memory. It returns the decoded value,
// the entry's encoded bytes — what the journal layer hashes to verify a
// replayed cell; the cache's own copy, not to be mutated — and a hit flag.
// A missing entry is (nil, nil, false, nil); a disk entry that fails to
// decode is quarantined and reported as a miss.
func (c *Cache) Get(key string, codec Codec) (any, []byte, bool, error) {
	var file string
	return c.get(key, &file, codec)
}

// get is Get. *file is key's disk file once get or put has derived it, ""
// before, so that a cell that misses and is then put derives it once.
func (c *Cache) get(key string, file *string, codec Codec) (any, []byte, bool, error) {
	tel := c.tel.Load()
	var t0 time.Time
	if tel != nil {
		t0 = time.Now()
	}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		b := el.Value.(*cacheEntry).b
		c.stats.Hits++
		c.mu.Unlock()
		v, err := codec.Decode(b)
		if err != nil {
			return nil, nil, false, err
		}
		if tel != nil {
			tel.hits.Inc()
			tel.getHit.ObserveSince(t0)
		}
		return v, b, true, nil
	}
	c.mu.Unlock()

	if c.dir != "" {
		b, err := os.ReadFile(c.file(key, file))
		if err == nil {
			v, derr := codec.Decode(b)
			if derr == nil {
				c.insert(key, b, true)
				if tel != nil {
					tel.hits.Inc()
					tel.diskHits.Inc()
					tel.getDisk.ObserveSince(t0)
				}
				return v, b, true, nil
			}
			// A corrupt or truncated entry file (a crashed writer that
			// predates the atomic rename, a partial copy, bit rot) is
			// quarantined: delete it so it cannot shadow the fresh result,
			// count it, and report a plain miss — the cell just re-runs.
			_ = os.Remove(*file)
			c.mu.Lock()
			c.stats.Corrupt++
			c.mu.Unlock()
			if tel != nil {
				tel.corrupt.Inc()
			}
		}
	}

	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	if tel != nil {
		tel.misses.Inc()
		tel.getMiss.ObserveSince(t0)
	}
	return nil, nil, false, nil
}

// Put encodes v with codec and stores the bytes under key, in memory and
// (when configured) on disk. It returns the encoded bytes — what the
// journal layer hashes when committing the cell.
func (c *Cache) Put(key string, v any, codec Codec) ([]byte, error) {
	var file string
	return c.put(key, &file, v, codec)
}

// put is Put, with file as for get.
func (c *Cache) put(key string, file *string, v any, codec Codec) ([]byte, error) {
	if tel := c.tel.Load(); tel != nil {
		defer tel.putH.ObserveSince(time.Now())
	}
	b, err := codec.Encode(v)
	if err != nil {
		return nil, fmt.Errorf("sweep: encoding cache entry: %w", err)
	}
	c.insert(key, b, false)
	if c.dir == "" {
		return b, nil
	}
	// Atomic write: a crashed or concurrent writer never leaves a torn
	// file for Get to misread. (Under an injected torn rename the entry
	// file can hold a prefix — which Get's decode-or-quarantine path treats
	// as a miss, so a faulted write still only costs a re-run.) No fsync:
	// the journal verifies an entry before trusting it.
	if err := journal.ReplaceFile(c.file(key, file), b, c.fs); err != nil {
		return nil, fmt.Errorf("sweep: cache write: %w", err)
	}
	return b, nil
}

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	return s
}

// insert stores encoded bytes at the LRU front, evicting from the back past
// capacity. diskHit marks the insert as a disk-layer promotion for stats.
func (c *Cache) insert(key string, b []byte, diskHit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if diskHit {
		c.stats.Hits++
		c.stats.DiskHits++
	}
	if el, ok := c.entries[key]; ok {
		c.stats.Bytes += int64(len(b)) - int64(len(el.Value.(*cacheEntry).b))
		el.Value.(*cacheEntry).b = b
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, b: b})
	c.stats.Bytes += int64(len(b))
	for c.ll.Len() > c.maxEntries {
		last := c.ll.Back()
		e := last.Value.(*cacheEntry)
		c.ll.Remove(last)
		delete(c.entries, e.key)
		c.stats.Bytes -= int64(len(e.b))
	}
}

// file returns key's disk file, derived into *name unless it already
// holds it.
func (c *Cache) file(key string, name *string) string {
	if *name == "" {
		*name = c.path(key)
	}
	return *name
}

// path maps a key to its disk file, in one allocation for a key of up to
// 64 bytes, such as a hex sha256. The key itself is hashed into the
// filename, so arbitrary key strings are safe.
func (c *Cache) path(key string) string {
	var keyBuf, hexSum [2 * sha256.Size]byte
	sum := sha256.Sum256(append(keyBuf[:0], key...))
	hex.Encode(hexSum[:], sum[:])
	var b strings.Builder
	b.Grow(len(c.dirPrefix) + len(hexSum) + len(".cell"))
	b.WriteString(c.dirPrefix)
	b.Write(hexSum[:])
	b.WriteString(".cell")
	return b.String()
}
