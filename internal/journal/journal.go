// Package journal is the crash-safe append-only record log underneath
// durable sweeps. A journal file is a magic
// header followed by length-prefixed, CRC32-checksummed records; appends go
// through one writer that can fsync on demand, so a caller gets a real
// write-ahead commit point, and Replay recovers exactly the prefix of
// records that were fully written — a torn or bit-flipped tail is detected
// by the checksum and ignored, never replayed.
//
// The payload is opaque bytes: the sweep layer stores JSON cell-commit
// records. The framing layer guarantees only integrity and ordering.
package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// fileMagic opens every journal file and names the format revision; a file
// that does not start with it is not (or no longer) a journal and replays
// as empty.
var fileMagic = []byte("CSWJ1\n")

// MaxRecord bounds one record's payload. The bound exists so a corrupted
// length prefix can never make Replay allocate gigabytes: any larger length
// is treated as damage, ending the valid prefix.
const MaxRecord = 1 << 26 // 64 MiB

// recHeader is the per-record frame: a little-endian uint32 payload length
// followed by the little-endian CRC32 (IEEE) of the payload.
const recHeader = 8

// ErrClosed is returned by appends to a closed writer.
var ErrClosed = errors.New("journal: writer closed")

// ReplayStats summarizes one journal scan.
type ReplayStats struct {
	// Records is the number of intact records replayed.
	Records int
	// ValidBytes is the byte length of the valid prefix — header plus every
	// intact record. OpenFS truncates a resumed journal to this offset.
	ValidBytes int64
	// Torn reports that damage was found past the valid prefix: a missing
	// or wrong magic header, a truncated frame, an oversized length, or a
	// checksum mismatch. Damage is not an error — it is exactly what a
	// crash mid-append leaves behind — but callers may want to count it.
	Torn bool
}

// Replay scans r from the start and calls fn with each intact record's
// payload in append order. Scanning stops at the first sign of damage —
// after which no record is trusted — and reports what was recovered. The
// only error Replay itself returns is fn's: a failed callback aborts the
// scan with that error. The payload slice is reused; fn must copy it to
// retain it.
func Replay(r io.Reader, fn func(payload []byte) error) (ReplayStats, error) {
	var stats ReplayStats
	br := bufio.NewReader(r)

	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		// Empty file: a journal that never got its header (or never
		// existed). Anything shorter than the magic is a torn header.
		if err == io.EOF {
			return stats, nil
		}
		stats.Torn = true
		return stats, nil
	}
	if string(magic) != string(fileMagic) {
		stats.Torn = true
		return stats, nil
	}
	stats.ValidBytes = int64(len(fileMagic))

	var hdr [recHeader]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			stats.Torn = err != io.EOF
			return stats, nil
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n > MaxRecord {
			stats.Torn = true
			return stats, nil
		}
		if uint32(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			stats.Torn = true
			return stats, nil
		}
		if crc32.ChecksumIEEE(payload) != sum {
			stats.Torn = true
			return stats, nil
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return stats, err
			}
		}
		stats.Records++
		stats.ValidBytes += recHeader + int64(n)
	}
}

// ReplayFile replays the journal at path; a missing file replays as empty.
func ReplayFile(path string, fn func(payload []byte) error) (ReplayStats, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return ReplayStats{}, nil
		}
		return ReplayStats{}, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	return Replay(f, fn)
}

// FS is the syscall surface the writer's appends and rewrites run
// through. A nil FS selects the real filesystem; the chaos tests inject a
// *fault.DiskInjector, which implements the same method set, to make the
// disk misbehave deterministically. Only the durable-commit operations are
// abstracted — opens, reads, and truncates happen at boot, before any
// record a caller depends on exists.
type FS interface {
	Write(f *os.File, p []byte) (int, error)
	Sync(f *os.File) error
	Rename(oldpath, newpath string) error
}

// fsWrite, fsSync, and fsRename route one operation through fs, or the
// real filesystem when fs is nil.
func fsWrite(fs FS, f *os.File, p []byte) (int, error) {
	if fs == nil {
		return f.Write(p)
	}
	return fs.Write(f, p)
}

func fsSync(fs FS, f *os.File) error {
	if fs == nil {
		return f.Sync()
	}
	return fs.Sync(f)
}

func fsRename(fs FS, oldpath, newpath string) error {
	if fs == nil {
		return os.Rename(oldpath, newpath)
	}
	return fs.Rename(oldpath, newpath)
}

// fileWriter adapts one (FS, *os.File) pair to io.Writer so the atomic
// file writers can sit on top of the injectable surface.
type fileWriter struct {
	fs FS
	f  *os.File
}

func (w fileWriter) Write(p []byte) (int, error) { return fsWrite(w.fs, w.f, p) }

// writeThrough is how many framed bytes a Writer holds before Append
// writes them out without waiting for Sync, so a writer that is never
// synced holds at most this plus one record.
const writeThrough = 4096

// Writer appends records to one journal file. It is safe for concurrent
// use. Append frames records into a slice the writer owns; Sync writes
// everything pending with one write and fsyncs the file, making
// everything appended so far the durable commit point. Once writeThrough
// bytes are pending, Append writes them out itself. The first failed write
// or fsync poisons the writer: every later call returns that error.
type Writer struct {
	mu  sync.Mutex
	f   *os.File
	fs  FS
	buf []byte // framed records not yet written
	err error  // first write failure; sticky, so a bad disk fails loudly once
}

// OpenFS opens the journal at path for appending, routing durable writes
// through fs (nil selects the real filesystem).
//
// With resume false the file is truncated and re-headed: a fresh log.
//
// With resume true the existing file (if any) is replayed through fn —
// exactly like Replay — the torn tail past the valid prefix is truncated
// away, and subsequent appends extend the recovered log. A fn error aborts
// the open. fn may be nil to resume without observing the old records.
func OpenFS(path string, resume bool, fn func(payload []byte) error, fs FS) (*Writer, ReplayStats, error) {
	var stats ReplayStats
	if resume {
		var err error
		stats, err = ReplayFile(path, fn)
		if err != nil {
			return nil, stats, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, stats, fmt.Errorf("journal: %w", err)
	}
	if stats.ValidBytes == 0 {
		// Fresh log (or a file so damaged nothing was recoverable): start
		// over with a clean header.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, stats, fmt.Errorf("journal: %w", err)
		}
		if _, err := f.WriteAt(fileMagic, 0); err != nil {
			f.Close()
			return nil, stats, fmt.Errorf("journal: %w", err)
		}
		stats.ValidBytes = int64(len(fileMagic))
	} else if err := f.Truncate(stats.ValidBytes); err != nil {
		// Drop the torn tail so the next append starts at a record
		// boundary; leaving it would corrupt the first new record.
		f.Close()
		return nil, stats, fmt.Errorf("journal: truncating torn tail: %w", err)
	}
	if _, err := f.Seek(stats.ValidBytes, io.SeekStart); err != nil {
		f.Close()
		return nil, stats, fmt.Errorf("journal: %w", err)
	}
	return &Writer{f: f, fs: fs}, stats, nil
}

// appendRecord frames one payload — length, checksum, bytes — onto dst. It
// is the single encoder behind both live appends and RewriteFS, so a
// rewritten journal is byte-for-byte what appending the same payloads
// would produce.
func appendRecord(dst, payload []byte) ([]byte, error) {
	if len(payload) > MaxRecord {
		return dst, fmt.Errorf("journal: record of %d bytes exceeds MaxRecord", len(payload))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...), nil
}

// Append frames one record into the pending bytes, writing them out once
// writeThrough bytes are pending. The record is not durable until Sync (or
// Close) returns. An oversized record is refused without poisoning the
// writer: it is the caller's mistake, not a broken file.
func (w *Writer) Append(payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	buf, err := appendRecord(w.buf, payload)
	if err != nil {
		return err
	}
	w.buf = buf
	if len(w.buf) >= writeThrough {
		return w.flushLocked()
	}
	return nil
}

// flushLocked writes the pending bytes with one write; the caller holds
// w.mu and has checked w.err. The slice is kept for the next records
// unless one large record grew it past twice writeThrough.
func (w *Writer) flushLocked() error {
	if len(w.buf) == 0 {
		return nil
	}
	n, err := fsWrite(w.fs, w.f, w.buf)
	if err == nil && n < len(w.buf) {
		err = io.ErrShortWrite
	}
	if err != nil {
		w.err = err
		return err
	}
	if cap(w.buf) > 2*writeThrough {
		w.buf = nil
	} else {
		w.buf = w.buf[:0]
	}
	return nil
}

// Sync writes the pending records and fsyncs the file: the write-ahead
// commit. Everything appended before a successful Sync survives process
// death and power loss.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

func (w *Writer) syncLocked() error {
	if w.err != nil {
		return w.err
	}
	if err := w.flushLocked(); err != nil {
		return err
	}
	if err := fsSync(w.fs, w.f); err != nil {
		w.err = err
		return err
	}
	return nil
}

// RewriteFS atomically replaces the journal at path with a fresh one
// holding exactly the given payloads, in order, routing durable writes
// through fs (nil selects the real filesystem). The new log is assembled
// in a temporary file in the same directory, fsynced, and renamed over the
// original, so a crash at any point leaves either the old journal or the
// complete new one — never a mix (on a filesystem with atomic rename; a
// torn rename leaves a prefix the CRC framing detects on the next replay).
// This is the primitive under journal compaction: the caller replays the
// old log, decides which records are still live, and rewrites.
func RewriteFS(path string, payloads [][]byte, fs FS) error {
	err := writeAtomic(path, filepath.Base(path)+".tmp-*", fs, true, func(w io.Writer) error {
		b := append([]byte(nil), fileMagic...)
		for _, p := range payloads {
			var err error
			if b, err = appendRecord(b, p); err != nil {
				return err
			}
		}
		_, err := w.Write(b)
		return err
	})
	if err != nil {
		return fmt.Errorf("journal: rewrite: %w", err)
	}
	// Best-effort directory sync so the rename itself survives power loss;
	// filesystems that cannot fsync a directory still got the atomic rename.
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// WriteFileAtomic replaces the file at path with b, routing the durable
// writes through fs (nil selects the real filesystem): a same-directory
// temporary file is written, fsynced, and renamed over path, so a reader
// sees the old file or the complete new one, never a torn mix.
func WriteFileAtomic(path string, b []byte, fs FS) error {
	return writeAtomic(path, filepath.Base(path)+".tmp-*", fs, true,
		func(w io.Writer) error { _, err := w.Write(b); return err })
}

// ReplaceFile is WriteFileAtomic without the fsync, and with a short
// ".tmp-*" temporary name: a reader still never sees a torn file, but a
// power loss may lose the new contents. It is for regenerable state
// written once per cell, such as sweep cache entries, which the cell
// journal verifies before trusting.
func ReplaceFile(path string, b []byte, fs FS) error {
	return writeAtomic(path, ".tmp-*", fs, false,
		func(w io.Writer) error { _, err := w.Write(b); return err })
}

// writeAtomic is the write-to-temporary-then-rename sequence under
// RewriteFS, WriteFileAtomic and ReplaceFile: fill writes the new contents
// through fs into a temporary file named by pattern beside path, fsynced
// when sync is set; a failure at any step leaves path untouched and no
// temporary file behind.
func writeAtomic(path, pattern string, fs FS, sync bool, fill func(w io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), pattern)
	if err != nil {
		return err
	}
	err = fill(fileWriter{fs: fs, f: tmp})
	if err == nil && sync {
		err = fsSync(fs, tmp)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsRename(fs, tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Close syncs and closes the file. Further appends return ErrClosed.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == ErrClosed {
		return nil
	}
	err := w.syncLocked()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.err = ErrClosed
	return err
}
