package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzWALReplay builds a valid journal from fuzz-chosen records, damages
// it with a fuzz-chosen corruption, and asserts the recovery invariants:
// Open never panics or errors on hostile bytes, and the recovered
// records are exactly a prefix of the originals — corruption may cost
// records from the tail, but can never invent, reorder, or resurrect
// one past the first bad byte.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte("one\x00two\x00three"), uint8(0), uint16(3))
	f.Add([]byte("commit:job-000001:fft:a1"), uint8(1), uint16(1))
	f.Add([]byte(""), uint8(2), uint16(0))
	f.Add([]byte("\x00\x00\x00"), uint8(3), uint16(50))
	f.Fuzz(func(t *testing.T, raw []byte, mode uint8, arg uint16) {
		dir := t.TempDir()
		l, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		records := bytes.Split(raw, []byte{0})
		for _, r := range records {
			if err := l.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		l.Close()

		path := journalPath(dir, 0)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		switch mode % 4 {
		case 0: // truncate
			if len(data) > 0 {
				data = data[:int(arg)%(len(data)+1)]
			}
		case 1: // flip a bit
			if len(data) > 0 {
				data[int(arg)%len(data)] ^= 1 << (arg % 8)
			}
		case 2: // append garbage derived from arg
			for i := 0; i < int(arg%64); i++ {
				data = append(data, byte(arg>>uint(i%9)))
			}
		case 3: // overwrite a run with a repeated byte
			if len(data) > 0 {
				start := int(arg) % len(data)
				for i := start; i < len(data) && i < start+9; i++ {
					data[i] = byte(arg)
				}
			}
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		l2, err := Open(dir) // must not panic or error, whatever the bytes
		if err != nil {
			t.Fatalf("Open on damaged journal: %v", err)
		}
		got := l2.Records()
		if len(got) > len(records) {
			t.Fatalf("recovered %d records from %d originals", len(got), len(records))
		}
		for i, g := range got {
			if !bytes.Equal(g, records[i]) {
				t.Fatalf("record %d = %q, want prefix of originals (%q)", i, g, records[i])
			}
		}
		// The repaired log must accept appends and survive a clean reopen.
		if err := l2.Append([]byte("post-repair")); err != nil {
			t.Fatal(err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		l3, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer l3.Close()
		final := l3.Records()
		if len(final) != len(got)+1 || !bytes.Equal(final[len(final)-1], []byte("post-repair")) {
			t.Fatalf("post-repair reopen: %d records, want %d ending in post-repair", len(final), len(got)+1)
		}
	})
}

// chunkScanAllocCap bounds what ReadChunked or VerifyChunked may allocate
// for one file beyond the file's size: the read window, the open file
// and its stat, and the error.
const chunkScanAllocCap = 16 << 10

// FuzzChunkedFile checks the reader and the verifier of chunked files,
// which the trace store reads from disk, on two files per input: the
// fuzz's bytes as they are, and a valid file that WriteChunked builds
// from the fuzz's payload, cut into blocks at the fuzz's lengths, in
// frames of the fuzz's chunk size. On both, nothing panics, ReadChunked
// and VerifyChunked agree — both succeed, or both fail with an
// *ErrCorruptChunk naming the same chunk — and each allocates at most
// chunkScanAllocCap plus the file's size, so a header claiming a
// MaxRecord payload over a short file allocates nothing for it. The
// written file also reads back byte-exact. The seeds are the files of
// the chunked-file tests, their corruptions and truncation, and such
// headers.
func FuzzChunkedFile(f *testing.F) {
	dir := f.TempDir()
	seed := func(payload []byte, chunk uint16, damage func([]byte) []byte) {
		path := filepath.Join(dir, "seed")
		if err := WriteChunked(path, [][]byte{payload}, int(chunk)); err != nil {
			f.Fatal(err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(damage(file), payload, []byte{3, 0, 200}, chunk)
	}
	same := func(b []byte) []byte { return b }
	seed(bytes.Repeat([]byte("0123456789abcdef"), 1000), 100, same)
	seed(nil, 0, same)
	corrupted := bytes.Repeat([]byte("payload "), 512)
	seed(corrupted, 256, same)
	for _, pos := range []int{0, len(chunkMagic) + 2, 2100, -1} {
		seed(corrupted, 256, func(b []byte) []byte {
			if pos < 0 {
				pos = len(b) - 1
			}
			b[pos] ^= 0x01
			return b
		})
	}
	seed(corrupted, 256, func(b []byte) []byte { return b[:len(b)-5] })
	for _, claim := range []uint32{MaxRecord, MaxRecord + 1} {
		hdr := binary.LittleEndian.AppendUint32([]byte(chunkMagic), claim)
		f.Add(append(binary.LittleEndian.AppendUint32(hdr, 0), "abc"...), []byte("abc"), []byte{}, uint16(1))
	}
	f.Fuzz(func(t *testing.T, file, payload, cuts []byte, chunk uint16) {
		path := filepath.Join(t.TempDir(), "f.lptrace")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		checkChunked(t, path, len(file))

		var blocks [][]byte
		rest := payload
		for _, c := range cuts {
			n := min(int(c), len(rest))
			blocks = append(blocks, rest[:n])
			rest = rest[n:]
		}
		blocks = append(blocks, rest)
		if err := WriteChunked(path, blocks, int(chunk)); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := checkChunked(t, path, int(st.Size()))
		if err != nil {
			t.Fatalf("reading a file WriteChunked wrote: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("read back %d bytes, wrote %d in %d blocks (chunk %d)", len(got), len(payload), len(blocks), chunk)
		}
	})
}

// checkChunked reads and verifies the size-byte chunked file at path,
// failing t if the two disagree or either allocates past its bound, and
// returns what ReadChunked returned.
func checkChunked(t *testing.T, path string, size int) ([]byte, error) {
	t.Helper()
	var data []byte
	var rerr, verr error
	for what, scan := range map[string]func(){
		"ReadChunked":   func() { data, rerr = ReadChunked(path) },
		"VerifyChunked": func() { verr = VerifyChunked(path) },
	} {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		scan()
		runtime.ReadMemStats(&ms)
		if grew := ms.TotalAlloc - before; grew > chunkScanAllocCap+uint64(size) {
			t.Fatalf("%s of a %d-byte file allocated %d", what, size, grew)
		}
	}
	var rc, vc *ErrCorruptChunk
	switch {
	case rerr == nil && verr == nil:
	case errors.As(rerr, &rc) && errors.As(verr, &vc) && *rc == *vc:
	default:
		t.Fatalf("ReadChunked: %v; VerifyChunked: %v; want both nil or the same corrupt chunk", rerr, verr)
	}
	return data, rerr
}
