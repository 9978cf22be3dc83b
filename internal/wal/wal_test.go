package wal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"unsafe"
)

func mustOpen(t *testing.T, dir string) *Log {
	t.Helper()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func appendAll(t *testing.T, l *Log, recs ...string) {
	t.Helper()
	for _, r := range recs {
		if err := l.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

func wantRecords(t *testing.T, l *Log, want ...string) {
	t.Helper()
	got := l.Records()
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d: %q", len(got), len(want), got)
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	appendAll(t, l, "one", "two", "", "four with some length")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir)
	defer l2.Close()
	wantRecords(t, l2, "one", "two", "", "four with some length")
	if s := l2.Stats(); s.RecoveredRecords != 4 || s.TornBytes != 0 {
		t.Fatalf("stats %+v, want 4 recovered, 0 torn", s)
	}
}

func TestCrashDropsUnsynced(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	appendAll(t, l, "durable")
	if err := l.Append([]byte("buffered, never synced")); err != nil {
		t.Fatal(err)
	}
	l.Crash()
	l2 := mustOpen(t, dir)
	defer l2.Close()
	wantRecords(t, l2, "durable")
}

func TestTornTailTruncated(t *testing.T) {
	// Every kind of tail damage must truncate at the first bad record and
	// keep everything before it.
	cases := []struct {
		name string
		keep []string // records surviving the tear
		tear func(t *testing.T, path string)
	}{
		{"garbage appended", []string{"alpha", "beta", "gamma"}, func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte{0x13, 0x37, 0xde, 0xad, 0xbe, 0xef})
			f.Close()
		}},
		{"partial record", []string{"alpha", "beta", "gamma"}, func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			// Claims 100 payload bytes, delivers 3.
			f.Write([]byte{100, 0, 0, 0, 1, 2, 3, 4, 9, 9, 9})
			f.Close()
		}},
		{"bit flip in last record", []string{"alpha", "beta"}, func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0x40
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated mid-record", []string{"alpha", "beta"}, func(t *testing.T, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-2); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l := mustOpen(t, dir)
			appendAll(t, l, "alpha", "beta", "gamma")
			l.Close()
			tc.tear(t, journalPath(dir, 0))

			l2 := mustOpen(t, dir)
			wantRecords(t, l2, tc.keep...)
			if s := l2.Stats(); s.TornBytes == 0 {
				t.Fatalf("stats %+v: torn tail not counted", s)
			}
			// The log must be appendable after truncation, and the repair
			// must stick.
			appendAll(t, l2, "delta")
			l2.Close()
			l3 := mustOpen(t, dir)
			defer l3.Close()
			wantRecords(t, l3, append(append([]string{}, tc.keep...), "delta")...)
		})
	}
}

func TestTornHeaderIsEmptyLog(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(journalPath(dir, 0), []byte("lpw"), 0o644); err != nil {
		t.Fatal(err)
	}
	l := mustOpen(t, dir)
	defer l.Close()
	wantRecords(t, l)
	appendAll(t, l, "fresh")
}

func TestCompactAndRecover(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	appendAll(t, l, "a", "b")
	if err := l.Compact([]byte("state-after-ab")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "c")
	l.Close()

	l2 := mustOpen(t, dir)
	defer l2.Close()
	if got := string(l2.Snapshot()); got != "state-after-ab" {
		t.Fatalf("snapshot %q, want state-after-ab", got)
	}
	wantRecords(t, l2, "c")
	// Exactly one generation remains on disk.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if len(names) != 2 {
		t.Fatalf("dir holds %v, want one snapshot + one journal", names)
	}
}

func TestCompactCrashWindows(t *testing.T) {
	// A crash between snapshot creation and journal creation must recover
	// the new snapshot with an empty journal; a crash before the old
	// generation is deleted must still pick the newest complete one.
	dir := t.TempDir()
	l := mustOpen(t, dir)
	appendAll(t, l, "a")
	if err := l.Compact([]byte("snap1")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "b")
	l.Close()

	// Simulate the crash window: snapshot-2 exists, journal-2 does not,
	// and generation 1 was not yet deleted.
	if err := os.WriteFile(snapshotPath(dir, 2), append([]byte(snapMagic), frame([]byte("snap2"))...), 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir)
	if got := string(l2.Snapshot()); got != "snap2" {
		t.Fatalf("snapshot %q, want snap2", got)
	}
	wantRecords(t, l2)
	l2.Close()

	// A corrupt newest snapshot falls back to the previous complete
	// generation.
	dir2 := t.TempDir()
	l3 := mustOpen(t, dir2)
	appendAll(t, l3, "x")
	if err := l3.Compact([]byte("good")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l3, "y")
	l3.Close()
	if err := os.WriteFile(snapshotPath(dir2, 2), []byte("lpsnap1\ngarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	l4 := mustOpen(t, dir2)
	defer l4.Close()
	if got := string(l4.Snapshot()); got != "good" {
		t.Fatalf("snapshot %q, want fallback to good", got)
	}
	wantRecords(t, l4, "y")
}

func TestInspect(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	appendAll(t, l, "a", "b")
	if err := l.Compact([]byte("snapshot")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, `{"k":"commit"}`)
	l.Close()
	// Tear the tail; Inspect must report it without repairing the file.
	f, err := os.OpenFile(journalPath(dir, 1), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{9, 9, 9})
	f.Close()
	before, _ := os.Stat(journalPath(dir, 1))

	info, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Gen != 1 || info.SnapshotBytes != len("snapshot") || len(info.Records) != 1 || info.TornBytes != 3 {
		t.Fatalf("info %+v, want gen 1, 8-byte snapshot, 1 record, 3 torn bytes", info)
	}
	after, _ := os.Stat(journalPath(dir, 1))
	if before.Size() != after.Size() {
		t.Fatal("Inspect modified the journal")
	}
}

func TestChunkedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.lptrace")
	data := bytes.Repeat([]byte("0123456789abcdef"), 1000)
	if err := WriteChunked(path, [][]byte{data}, 100); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadChunked(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: %d bytes, want %d", len(got), len(data))
	}
	if err := VerifyChunked(path); err != nil {
		t.Fatal(err)
	}
	// Frames span blocks: the same bytes in blocks of other sizes, empty
	// ones among them, make the same file.
	for _, size := range []int{1, 37, 100, 4096, len(data)} {
		var blocks [][]byte
		for rest := data; len(rest) > 0; rest = rest[min(size, len(rest)):] {
			blocks = append(blocks, rest[:min(size, len(rest))], nil)
		}
		if err := WriteChunked(path, blocks, 100); err != nil {
			t.Fatal(err)
		}
		if again, err := os.ReadFile(path); err != nil || !bytes.Equal(again, whole) {
			t.Fatalf("%d-byte blocks: file differs from the one-block write (%v)", size, err)
		}
	}
	// Empty payloads are legal.
	if err := WriteChunked(path, nil, 0); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadChunked(path); err != nil || len(got) != 0 {
		t.Fatalf("empty round trip: %v, %d bytes", err, len(got))
	}
}

func TestChunkedDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.lptrace")
	data := bytes.Repeat([]byte("payload "), 512)
	if err := WriteChunked(path, [][]byte{data}, 256); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{0, len(chunkMagic) + 2, len(raw) / 2, len(raw) - 1} {
		bad := append([]byte(nil), raw...)
		bad[pos] ^= 0x01
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := VerifyChunked(path); err == nil {
			t.Fatalf("flip at %d: corruption not detected", pos)
		}
	}
	// Truncation is corruption too (no legal torn tail for data files).
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *ErrCorruptChunk
	if err := VerifyChunked(path); err == nil {
		t.Fatal("truncation not detected")
	} else if !errorsAs(err, &ce) {
		t.Fatalf("error %T, want *ErrCorruptChunk", err)
	}
}

// errorsAs avoids importing errors for one call site.
func errorsAs(err error, target **ErrCorruptChunk) bool {
	ce, ok := err.(*ErrCorruptChunk)
	if ok {
		*target = ce
	}
	return ok
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	l.Close()
	if err := l.Append([]byte("x")); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("sync after close succeeded")
	}
}

func TestManyCompactions(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	for i := 0; i < 10; i++ {
		appendAll(t, l, fmt.Sprintf("rec-%d", i))
		if err := l.Compact([]byte(fmt.Sprintf("snap-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	l2 := mustOpen(t, dir)
	defer l2.Close()
	if got := string(l2.Snapshot()); got != "snap-9" {
		t.Fatalf("snapshot %q, want snap-9", got)
	}
	wantRecords(t, l2)
}

// TestBlockReader: the reader yields the blocks' bytes in order, across
// block boundaries and empty blocks, for any read size, then io.EOF; and
// it leaves the list it reads exactly as it found it.
func TestBlockReader(t *testing.T) {
	blocks := [][]byte{[]byte("lo"), nil, []byte("opa"), {}, []byte("palooza"), []byte("!")}
	before := slices.Clone(blocks)
	for _, size := range []int{1, 2, 3, 5, 64} {
		r := NewBlockReader(blocks)
		var got []byte
		buf := make([]byte, size)
		for {
			n, err := r.Read(buf)
			got = append(got, buf[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil || n == 0 {
				t.Fatalf("%d-byte reads: (%d, %v) before the end", size, n, err)
			}
		}
		if string(got) != "loopapalooza!" {
			t.Errorf("%d-byte reads: %q", size, got)
		}
	}
	for i := range blocks {
		if unsafe.SliceData(blocks[i]) != unsafe.SliceData(before[i]) || len(blocks[i]) != len(before[i]) || cap(blocks[i]) != cap(before[i]) {
			t.Fatalf("block %d rewritten by a read", i)
		}
	}
}
