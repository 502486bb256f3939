package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// collect replays the file at path and returns copies of every payload.
func collect(t *testing.T, path string) ([][]byte, ReplayStats) {
	t.Helper()
	var got [][]byte
	stats, err := ReplayFile(path, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("ReplayFile: %v", err)
	}
	return got, stats
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	w, _, err := OpenFS(path, false, nil, nil)
	if err != nil {
		t.Fatalf("OpenFS: %v", err)
	}
	want := [][]byte{[]byte("alpha"), {}, []byte("gamma with\x00binary"), bytes.Repeat([]byte{0xAB}, 4096)}
	for _, p := range want {
		if err := w.Append(p); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := w.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}

	got, stats := collect(t, path)
	if stats.Torn {
		t.Fatal("clean journal reported torn")
	}
	if stats.Records != len(want) {
		t.Fatalf("Records = %d, want %d", stats.Records, len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != stats.ValidBytes {
		t.Fatalf("file size %d != ValidBytes %d", fi.Size(), stats.ValidBytes)
	}
}

// TestRewrite pins the compaction primitive: the rewritten file holds
// exactly the given payloads, is byte-identical to appending them fresh,
// and replaces the original atomically (no temp file left behind).
func TestRewrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.wal")
	w, _, err := OpenFS(path, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := w.Append([]byte(fmt.Sprintf("old-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	live := [][]byte{[]byte("keep-a"), {}, []byte("keep-b")}
	if err := RewriteFS(path, live, nil); err != nil {
		t.Fatalf("Rewrite: %v", err)
	}

	got, stats := collect(t, path)
	if stats.Torn || stats.Records != len(live) {
		t.Fatalf("rewritten journal: stats=%+v", stats)
	}
	for i := range live {
		if !bytes.Equal(got[i], live[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], live[i])
		}
	}

	// Byte-identical to a journal built by appending the same payloads.
	fresh := filepath.Join(dir, "fresh.wal")
	fw, _, err := OpenFS(fresh, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range live {
		if err := fw.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("rewritten journal differs from an append-built one")
	}

	// No rewrite debris in the directory.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "j.wal" && e.Name() != "fresh.wal" {
			t.Fatalf("leftover file %q after rewrite", e.Name())
		}
	}

	// The rewritten log keeps accepting appends.
	w2, stats, err := OpenFS(path, true, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != len(live) {
		t.Fatalf("resume after rewrite replayed %d records, want %d", stats.Records, len(live))
	}
	if err := w2.Append([]byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ = collect(t, path)
	if len(got) != len(live)+1 || string(got[len(got)-1]) != "new" {
		t.Fatalf("append after rewrite: got %d records", len(got))
	}
}

func TestEmptyAndMissing(t *testing.T) {
	dir := t.TempDir()

	stats, err := ReplayFile(filepath.Join(dir, "nope.wal"), nil)
	if err != nil || stats.Records != 0 || stats.Torn {
		t.Fatalf("missing file: stats=%+v err=%v", stats, err)
	}

	empty := filepath.Join(dir, "empty.wal")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	stats, err = ReplayFile(empty, func([]byte) error { t.Fatal("fn called"); return nil })
	if err != nil || stats.Records != 0 || stats.Torn {
		t.Fatalf("empty file: stats=%+v err=%v", stats, err)
	}
}

func TestResumeAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	w, _, err := OpenFS(path, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var replayed [][]byte
	w, stats, err := OpenFS(path, true, func(p []byte) error {
		replayed = append(replayed, append([]byte(nil), p...))
		return nil
	}, nil)
	if err != nil {
		t.Fatalf("OpenFS resume: %v", err)
	}
	if stats.Records != 1 || stats.Torn {
		t.Fatalf("resume stats = %+v", stats)
	}
	if len(replayed) != 1 || string(replayed[0]) != "one" {
		t.Fatalf("replayed = %q", replayed)
	}
	if err := w.Append([]byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, stats := collect(t, path)
	if stats.Torn || len(got) != 2 || string(got[0]) != "one" || string(got[1]) != "two" {
		t.Fatalf("after resume-append: got=%q stats=%+v", got, stats)
	}
}

func TestTornTailTruncatedOnResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	w, _, err := OpenFS(path, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: chop the last record in half.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	w, stats, err := OpenFS(path, true, nil, nil)
	if err != nil {
		t.Fatalf("OpenFS resume over torn tail: %v", err)
	}
	if !stats.Torn || stats.Records != 2 {
		t.Fatalf("resume stats = %+v, want Torn with 2 records", stats)
	}
	if err := w.Append([]byte("rec-2-retry")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, stats := collect(t, path)
	if stats.Torn {
		t.Fatalf("journal still torn after resume truncation: %+v", stats)
	}
	want := []string{"rec-0", "rec-1", "rec-2-retry"}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i, s := range want {
		if string(got[i]) != s {
			t.Fatalf("record %d = %q, want %q", i, got[i], s)
		}
	}
}

func TestBadMagicStartsFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	if err := os.WriteFile(path, []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, stats, err := OpenFS(path, true, func([]byte) error { t.Fatal("fn called"); return nil }, nil)
	if err != nil {
		t.Fatalf("OpenFS: %v", err)
	}
	if !stats.Torn || stats.Records != 0 {
		t.Fatalf("stats = %+v, want torn, 0 records", stats)
	}
	if err := w.Append([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, stats := collect(t, path)
	if stats.Torn || len(got) != 1 || string(got[0]) != "fresh" {
		t.Fatalf("after fresh restart: got=%q stats=%+v", got, stats)
	}
}

func TestOversizeLengthIsTorn(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(fileMagic)
	var hdr [recHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], MaxRecord+1)
	binary.LittleEndian.PutUint32(hdr[4:8], 0)
	buf.Write(hdr[:])
	buf.Write(bytes.Repeat([]byte{0xFF}, 64)) // garbage "payload"

	stats, err := Replay(&buf, func([]byte) error { t.Fatal("fn called"); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Torn || stats.Records != 0 {
		t.Fatalf("stats = %+v, want torn with 0 records", stats)
	}
}

func TestChecksumMismatchIsTorn(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(fileMagic)
	payload := []byte("good record")
	var hdr [recHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	buf.Write(hdr[:])
	buf.Write(payload)
	// Second record with a corrupted byte.
	bad := []byte("evil record")
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(bad)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(bad))
	buf.Write(hdr[:])
	bad[3] ^= 0x40
	buf.Write(bad)

	var got [][]byte
	stats, err := Replay(&buf, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Torn || stats.Records != 1 || len(got) != 1 || string(got[0]) != "good record" {
		t.Fatalf("stats=%+v got=%q, want 1 good record then torn", stats, got)
	}
}

func TestFnErrorAborts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	w, _, err := OpenFS(path, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Append([]byte("a"))
	w.Append([]byte("b"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wantErr := fmt.Errorf("stop here")
	_, err = ReplayFile(path, func([]byte) error { return wantErr })
	if err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
}

func TestAppendTooLarge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	w, _, err := OpenFS(path, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	big := make([]byte, MaxRecord+1)
	if err := w.Append(big); err == nil {
		t.Fatal("Append of oversize record succeeded")
	}
	// The oversize rejection must not poison the writer.
	if err := w.Append([]byte("small")); err != nil {
		t.Fatalf("Append after oversize rejection: %v", err)
	}
}

// recordingFS is a real filesystem that records the size of every write
// and, from the failAt'th write on (counting from 1), fails instead.
type recordingFS struct {
	writes []int
	failAt int
}

var errInjected = errors.New("injected write failure")

func (fs *recordingFS) Write(f *os.File, p []byte) (int, error) {
	fs.writes = append(fs.writes, len(p))
	if fs.failAt > 0 && len(fs.writes) >= fs.failAt {
		return 0, errInjected
	}
	return f.Write(p)
}

func (fs *recordingFS) Sync(f *os.File) error                { return f.Sync() }
func (fs *recordingFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// writerPayloads are records of mixed sizes, some far past writeThrough.
func writerPayloads() [][]byte {
	var ps [][]byte
	for i := 0; i < 200; i++ {
		ps = append(ps, bytes.Repeat([]byte{byte(i)}, (i*37)%700))
	}
	return append(ps, nil, bytes.Repeat([]byte("big"), 5000), []byte("tail"))
}

// TestWriterMatchesRewrite checks that the pending-slice writer frames
// exactly what RewriteFS writes, whether each record is synced or many
// are left pending until the writer writes them through.
func TestWriterMatchesRewrite(t *testing.T) {
	dir := t.TempDir()
	payloads := writerPayloads()
	ref := filepath.Join(dir, "ref.wal")
	if err := RewriteFS(ref, payloads, nil); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, syncEach := range []bool{true, false} {
		path := filepath.Join(dir, fmt.Sprintf("sync-%v.wal", syncEach))
		fs := &recordingFS{}
		w, _, err := OpenFS(path, false, nil, fs)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range payloads {
			if err := w.Append(p); err != nil {
				t.Fatal(err)
			}
			if syncEach {
				if err := w.Sync(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("sync each %v: appended journal (%d bytes) differs from the rewritten one (%d bytes)", syncEach, len(got), len(want))
		}
		if syncEach && len(fs.writes) != len(payloads) {
			t.Errorf("syncing each of %d records took %d writes, want one per commit", len(payloads), len(fs.writes))
		}
	}
}

// TestWriterPendingBounded appends without ever syncing: the writer holds at most writeThrough bytes plus one record,
// and writes them out as one write.
func TestWriterPendingBounded(t *testing.T) {
	fs := &recordingFS{}
	w, _, err := OpenFS(filepath.Join(t.TempDir(), "j.wal"), false, nil, fs)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i, p := range writerPayloads() {
		frame, writes := recHeader+len(p), len(fs.writes)
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
		w.mu.Lock()
		pending := len(w.buf)
		w.mu.Unlock()
		if pending >= writeThrough {
			t.Fatalf("after record %d, %d bytes pending, want fewer than %d", i, pending, writeThrough)
		}
		if n := len(fs.writes); n > writes && fs.writes[n-1] > writeThrough+frame {
			t.Fatalf("record %d was written with %d bytes, want at most %d + its %d", i, fs.writes[n-1], writeThrough, frame)
		}
	}
	if len(fs.writes) == 0 {
		t.Fatal("an unsynced writer never wrote through")
	}
}

// TestWriterPoisoned fails the writer's first write: that error comes back
// from every later Append, Sync and Close, and nothing more reaches the
// file system.
func TestWriterPoisoned(t *testing.T) {
	fs := &recordingFS{failAt: 1}
	w, _, err := OpenFS(filepath.Join(t.TempDir(), "j.wal"), false, nil, fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("first")); err != nil {
		t.Fatalf("Append before any write: %v", err)
	}
	if err := w.Sync(); !errors.Is(err, errInjected) {
		t.Fatalf("Sync = %v, want the injected failure", err)
	}
	if err := w.Append([]byte("second")); !errors.Is(err, errInjected) {
		t.Errorf("Append after a failed write = %v, want the injected failure", err)
	}
	if err := w.Sync(); !errors.Is(err, errInjected) {
		t.Errorf("second Sync = %v, want the injected failure", err)
	}
	if err := w.Close(); !errors.Is(err, errInjected) {
		t.Errorf("Close = %v, want the injected failure", err)
	}
	if len(fs.writes) != 1 {
		t.Errorf("a poisoned writer made %d writes, want only the failed one", len(fs.writes))
	}
}
