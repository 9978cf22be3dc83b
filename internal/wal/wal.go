// Package wal is the durability substrate of the coordinator: an
// append-only, length-prefixed, CRC32C-checksummed record log with
// explicit fsync points, periodic snapshots with log compaction, and a
// reader that tolerates torn tails.
//
// A Log is a directory holding at most one active generation: a
// snapshot file (snapshot-<gen>.snap, the full state at compaction
// time) and a journal file (journal-<gen>.wal, every record appended
// since). Open recovers the newest complete generation, validates the
// journal record by record, and truncates at the first corrupt record —
// a torn tail from a crash mid-write loses only the unsynced suffix and
// never resurrects anything past the corruption. Recovery never panics
// on hostile bytes: any framing violation is a truncation point, and an
// unreadable snapshot falls back to the previous generation when one
// still exists.
//
// Compaction is crash-safe by ordering: the new snapshot is written to
// a temp file, fsynced, and renamed before the new journal is created,
// and the old generation is deleted only after the new one is complete.
// A crash at any point leaves either the old generation intact or the
// new one complete.
//
// The content of records and snapshots is opaque to this package; the
// cluster layer stores JSON state transitions, and the same chunked
// framing (chunks.go) protects .lptrace files in the trace store.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Framing constants. Each record is a 4-byte little-endian payload
// length, a 4-byte CRC32C (Castagnoli) of the payload, then the payload.
const (
	journalMagic = "lpwal01\n"
	snapMagic    = "lpsnap1\n"
	headerSize   = 8 // per-record: uint32 length + uint32 crc
	// MaxRecord bounds a single record; a corrupt length field past it is
	// a truncation point rather than an allocation bomb.
	MaxRecord = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed (or crashed) log.
var ErrClosed = errors.New("wal: log closed")

// Stats counts a log's traffic since Open.
type Stats struct {
	// Appended counts records appended; BytesWritten their framed bytes.
	Appended     uint64
	BytesWritten uint64
	// Syncs counts explicit fsync points.
	Syncs uint64
	// Compactions counts snapshot+truncate cycles.
	Compactions uint64
	// RecoveredRecords counts journal records replayed at Open;
	// TornBytes the tail bytes truncated at the first corrupt record.
	RecoveredRecords uint64
	TornBytes        uint64
	// SnapshotBytes is the size of the last written (or recovered)
	// snapshot payload.
	SnapshotBytes uint64
	// SizeBytes is the current journal file size.
	SizeBytes uint64
}

// Log is one open write-ahead log directory.
type Log struct {
	dir string

	mu      sync.Mutex
	f       *os.File
	buf     []byte // appended, not yet written to the file (lost by Crash)
	gen     uint64
	closed  bool
	crashed bool
	stats   Stats

	snapshot []byte
	records  [][]byte
}

// Open recovers (or creates) the log in dir. The recovered snapshot and
// journal records are available from Snapshot and Records until the
// first Compact.
func Open(dir string) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	gens, err := listGenerations(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir}

	// Newest generation with a loadable snapshot wins; generation 0 needs
	// no snapshot (the empty state). A generation whose snapshot is
	// unreadable is skipped entirely — its journal is meaningless without
	// the state it appends to.
	chosen := uint64(0)
	for i := len(gens) - 1; i >= 0; i-- {
		g := gens[i]
		if g == 0 {
			chosen = 0
			break
		}
		snap, err := readSnapshot(snapshotPath(dir, g))
		if err != nil {
			continue
		}
		l.snapshot = snap
		l.stats.SnapshotBytes = uint64(len(snap))
		chosen = g
		break
	}
	l.gen = chosen

	jp := journalPath(dir, chosen)
	records, validLen, torn, err := readJournal(jp)
	if err != nil {
		return nil, err
	}
	l.records = records
	l.stats.RecoveredRecords = uint64(len(records))
	l.stats.TornBytes = uint64(torn)

	f, err := os.OpenFile(jp, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if torn > 0 {
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
	}
	if validLen == 0 {
		if _, err := f.Write([]byte(journalMagic)); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		validLen = int64(len(journalMagic))
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.stats.SizeBytes = uint64(validLen)
	// Drop generations other than the chosen one: leftovers from a crash
	// mid-compaction.
	for _, g := range gens {
		if g != chosen {
			os.Remove(snapshotPath(dir, g))
			os.Remove(journalPath(dir, g))
		}
	}
	return l, nil
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Snapshot returns the snapshot payload recovered at Open (nil when the
// log started from the empty state).
func (l *Log) Snapshot() []byte { return l.snapshot }

// Records returns the journal records recovered at Open, in append
// order, ending at the first corruption.
func (l *Log) Records() [][]byte { return l.records }

// Stats snapshots the log counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Append buffers one record. It is not durable until Sync returns; a
// crash in between loses the record, never corrupts the log.
func (l *Log) Append(rec []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if len(rec) > MaxRecord {
		return fmt.Errorf("wal: record of %d bytes exceeds MaxRecord", len(rec))
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(rec)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(rec, castagnoli))
	l.buf = append(l.buf, hdr[:]...)
	l.buf = append(l.buf, rec...)
	l.stats.Appended++
	l.stats.BytesWritten += uint64(headerSize + len(rec))
	return nil
}

// Sync writes the buffered records and fsyncs the journal: the explicit
// durability point. Records appended before a returned nil survive a
// crash.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.closed {
		return ErrClosed
	}
	if len(l.buf) > 0 {
		if _, err := l.f.Write(l.buf); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.stats.SizeBytes += uint64(len(l.buf))
		l.buf = l.buf[:0]
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.stats.Syncs++
	return nil
}

// Compact writes snapshot as the new generation's base state and starts
// an empty journal, deleting the old generation afterwards. Pending
// appends are folded into the snapshot by the caller (it serializes the
// live state), so they are dropped rather than carried over.
func (l *Log) Compact(snapshot []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	next := l.gen + 1

	// 1. New snapshot: temp file, fsync, rename. Complete-or-absent.
	sp := snapshotPath(l.dir, next)
	if err := writeFileSync(sp, func(w io.Writer) error {
		_, err := w.Write(append([]byte(snapMagic), frame(snapshot)...))
		return err
	}); err != nil {
		return err
	}
	// 2. New journal with just the magic header.
	jp := journalPath(l.dir, next)
	nf, err := os.OpenFile(jp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := nf.Write([]byte(journalMagic)); err != nil {
		nf.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := nf.Sync(); err != nil {
		nf.Close()
		return fmt.Errorf("wal: %w", err)
	}
	syncDir(l.dir)
	// 3. Switch, then drop the old generation.
	old := l.gen
	l.f.Close()
	l.f, l.gen, l.buf = nf, next, l.buf[:0]
	os.Remove(journalPath(l.dir, old))
	os.Remove(snapshotPath(l.dir, old))
	l.snapshot, l.records = nil, nil
	l.stats.Compactions++
	l.stats.Syncs++
	l.stats.SnapshotBytes = uint64(len(snapshot))
	l.stats.SizeBytes = uint64(len(journalMagic))
	return nil
}

// Close syncs and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	err := l.syncLocked()
	l.closed = true
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Crash abandons the log the way SIGKILL would: buffered records that
// were never synced are dropped and the file is closed without a final
// flush. Chaos and recovery tests use it to simulate coordinator death;
// everything synced before the crash must survive a subsequent Open.
func (l *Log) Crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed, l.crashed = true, true
	l.buf = nil
	l.f.Close()
}

// frame wraps one payload in the record framing.
func frame(payload []byte) []byte {
	out := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(out[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:], crc32.Checksum(payload, castagnoli))
	copy(out[headerSize:], payload)
	return out
}

// readJournal validates path record by record, returning the valid
// records, the byte length of the valid prefix, and how many torn tail
// bytes follow it. A missing file is an empty journal.
func readJournal(path string) (records [][]byte, validLen int64, torn int64, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, 0, nil
	}
	if err != nil {
		return nil, 0, 0, fmt.Errorf("wal: %w", err)
	}
	if len(data) < len(journalMagic) || string(data[:len(journalMagic)]) != journalMagic {
		// Header torn or foreign: the whole file is tail.
		return nil, 0, int64(len(data)), nil
	}
	off := int64(len(journalMagic))
	rest := data[off:]
	for {
		rec, n, ok := nextRecord(rest)
		if !ok {
			return records, off, int64(len(rest)), nil
		}
		records = append(records, rec)
		off += n
		rest = rest[n:]
	}
}

// nextRecord decodes one framed record from b, returning its payload
// and consumed length. ok is false at a clean end AND at any framing
// violation — the caller cannot tell a torn tail from an end-of-log,
// which is exactly the truncate-at-first-corruption contract.
func nextRecord(b []byte) (payload []byte, n int64, ok bool) {
	if len(b) < headerSize {
		return nil, 0, false
	}
	length := binary.LittleEndian.Uint32(b[0:4])
	crc := binary.LittleEndian.Uint32(b[4:8])
	if length > MaxRecord || int64(length) > int64(len(b)-headerSize) {
		return nil, 0, false
	}
	payload = b[headerSize : headerSize+int(length)]
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, 0, false
	}
	// Copy out: the caller retains records past the backing file buffer.
	out := make([]byte, len(payload))
	copy(out, payload)
	return out, headerSize + int64(length), true
}

// readSnapshot loads and verifies one snapshot file.
func readSnapshot(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("wal: %s: bad snapshot magic", path)
	}
	payload, n, ok := nextRecord(data[len(snapMagic):])
	if !ok || int(n) != len(data)-len(snapMagic) {
		return nil, fmt.Errorf("wal: %s: corrupt snapshot", path)
	}
	return payload, nil
}

func journalPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("journal-%08d.wal", gen))
}

func snapshotPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snapshot-%08d.snap", gen))
}

// listGenerations returns every generation number present in dir (from
// either file kind), ascending.
func listGenerations(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	seen := map[uint64]bool{}
	for _, e := range ents {
		name := e.Name()
		var num string
		switch {
		case strings.HasPrefix(name, "journal-") && strings.HasSuffix(name, ".wal"):
			num = strings.TrimSuffix(strings.TrimPrefix(name, "journal-"), ".wal")
		case strings.HasPrefix(name, "snapshot-") && strings.HasSuffix(name, ".snap"):
			num = strings.TrimSuffix(strings.TrimPrefix(name, "snapshot-"), ".snap")
		default:
			continue
		}
		g, err := strconv.ParseUint(num, 10, 64)
		if err != nil {
			continue
		}
		seen[g] = true
	}
	gens := make([]uint64, 0, len(seen))
	for g := range seen {
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// writeFileSync writes the file at path atomically: write fills a temp
// file, which is fsynced and renamed over path, then the directory is
// fsynced.
func writeFileSync(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	syncDir(filepath.Dir(path))
	return nil
}

// syncDir fsyncs a directory so renames and creations are durable.
// Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Info describes a log directory for inspection (lpd -wal-dump).
type Info struct {
	// Gen is the active generation.
	Gen uint64
	// SnapshotBytes is the snapshot payload size (0 = empty base state).
	SnapshotBytes int
	// Records are the valid journal record payloads, in order.
	Records [][]byte
	// TornBytes counts journal tail bytes past the first corruption.
	TornBytes int64
}

// Inspect reads a log directory without opening it for writing (and
// without truncating a torn tail), so a live or crashed journal can be
// examined in place.
func Inspect(dir string) (*Info, error) {
	gens, err := listGenerations(dir)
	if err != nil {
		return nil, err
	}
	info := &Info{}
	for i := len(gens) - 1; i >= 0; i-- {
		g := gens[i]
		if g == 0 {
			info.Gen = 0
			break
		}
		snap, err := readSnapshot(snapshotPath(dir, g))
		if err != nil {
			continue
		}
		info.Gen, info.SnapshotBytes = g, len(snap)
		break
	}
	records, _, torn, err := readJournal(journalPath(dir, info.Gen))
	if err != nil {
		return nil, err
	}
	info.Records, info.TornBytes = records, torn
	return info, nil
}
