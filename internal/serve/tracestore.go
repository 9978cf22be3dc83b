package serve

// The durable trace tier: a directory of chunk-checksummed .lptrace
// files keyed by the same content address as the in-memory TraceCache.
// Where the memory tier dies with the process, the store survives
// restarts — a recycled server replays yesterday's traces instead of
// re-interpreting every program from scratch.
//
// The store holds a trace in the tiers' one representation, a list of
// blocks. Put writes the checksummed frames straight from the blocks a
// live run recorded; Get returns the verified payload as a one-block list
// in a buffer of the file's size, which the memory tier can keep as it
// is. Neither joins nor copies the trace a second time.
//
// The store is self-healing. Every file carries per-chunk CRC32C
// checksums (wal.WriteChunked), so silent disk corruption is detected
// on read; a scrubber walks the directory at startup and on a timer,
// moving files that fail verification into quarantine/ beside the
// store. The scrubber checks each file through a small read window
// (wal.VerifyChunked), so a pass allocates next to nothing per stored
// byte. A quarantined or missing trace is simply a miss: the next
// demand for that program runs live and re-records the trace — repair
// by re-execution, never by trusting damaged bytes.

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"loopapalooza/internal/wal"
)

// DefaultScrubInterval is the scrubber period when Options leave it
// zero.
const DefaultScrubInterval = 5 * time.Minute

// traceExt is the on-disk suffix of one stored trace.
const traceExt = ".lptrace"

// quarantineDir is the subdirectory corrupt traces are moved into.
const quarantineDir = "quarantine"

// TraceStoreStats is a monotonic snapshot of disk-tier traffic.
type TraceStoreStats struct {
	// Hits counts reads that returned a verified trace.
	Hits uint64
	// Misses counts reads with no stored (or no readable) trace.
	Misses uint64
	// Puts counts traces written.
	Puts uint64
	// WriteErrors counts failed writes (the fill still succeeds).
	WriteErrors uint64
	// Quarantined counts files moved to quarantine/ — corrupt on read
	// or scrub, or unreplayable on demand.
	Quarantined uint64
	// ScrubRuns counts scrubber passes; ScrubFiles the traces they
	// verified; ScrubCorrupt the ones that failed verification.
	ScrubRuns    uint64
	ScrubFiles   uint64
	ScrubCorrupt uint64
}

// TraceStore is the durable trace tier rooted at one directory.
type TraceStore struct {
	dir  string
	qdir string

	mu    sync.Mutex
	stats TraceStoreStats
}

// NewTraceStore opens (creating if needed) the trace store in dir.
func NewTraceStore(dir string) (*TraceStore, error) {
	qdir := filepath.Join(dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: trace store: %w", err)
	}
	return &TraceStore{dir: dir, qdir: qdir}, nil
}

// Dir returns the store's root directory.
func (ts *TraceStore) Dir() string { return ts.dir }

func (ts *TraceStore) path(key string) string {
	return filepath.Join(ts.dir, key+traceExt)
}

// Get returns the stored trace for key, checksum-verified, as a list of
// one block. A missing file is (nil, nil) — a plain miss. A file that
// fails verification is quarantined and returned as a miss alongside the
// corruption error, so the caller can log what the scrubber would have
// found.
func (ts *TraceStore) Get(key string) ([][]byte, error) {
	data, err := wal.ReadChunked(ts.path(key))
	switch {
	case err == nil:
		ts.bump(func(s *TraceStoreStats) { s.Hits++ })
		return [][]byte{data}, nil
	case errors.Is(err, os.ErrNotExist):
		ts.bump(func(s *TraceStoreStats) { s.Misses++ })
		return nil, nil
	default:
		ts.bump(func(s *TraceStoreStats) { s.Misses++ })
		ts.Quarantine(key)
		return nil, err
	}
}

// Put stores one recorded trace, given as its blocks, under key,
// atomically.
func (ts *TraceStore) Put(key string, trace [][]byte) error {
	if err := wal.WriteChunked(ts.path(key), trace, 0); err != nil {
		ts.bump(func(s *TraceStoreStats) { s.WriteErrors++ })
		return fmt.Errorf("serve: trace store: %w", err)
	}
	ts.bump(func(s *TraceStoreStats) { s.Puts++ })
	return nil
}

// Quarantine moves key's file into quarantine/ (keeping the evidence
// for inspection instead of deleting it), so the next demand for the
// program re-executes and re-records. Quarantining an absent file is a
// no-op: a concurrent reader may have already moved it.
func (ts *TraceStore) Quarantine(key string) error {
	err := os.Rename(ts.path(key), filepath.Join(ts.qdir, key+traceExt))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("serve: quarantining trace: %w", err)
	}
	ts.bump(func(s *TraceStoreStats) { s.Quarantined++ })
	return nil
}

// ScrubResult reports one scrubber pass.
type ScrubResult struct {
	// Files is how many stored traces were verified.
	Files int
	// Corrupt is how many failed verification and were quarantined.
	Corrupt int
}

// Scrub verifies every stored trace's checksums and quarantines the
// failures. Run at startup and periodically; log receives one warning
// per corrupt file (nil = silent).
func (ts *TraceStore) Scrub(log *slog.Logger) ScrubResult {
	var res ScrubResult
	ents, err := os.ReadDir(ts.dir)
	if err != nil {
		if log != nil {
			log.Warn("trace scrub: reading store", "dir", ts.dir, "err", err.Error())
		}
		return res
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, traceExt) {
			continue
		}
		res.Files++
		if verr := wal.VerifyChunked(filepath.Join(ts.dir, name)); verr != nil {
			res.Corrupt++
			key := strings.TrimSuffix(name, traceExt)
			if qerr := ts.Quarantine(key); qerr != nil && log != nil {
				log.Warn("trace scrub: quarantine failed", "file", name, "err", qerr.Error())
			} else if log != nil {
				log.Warn("trace scrub: quarantined corrupt trace", "file", name, "err", verr.Error())
			}
		}
	}
	ts.bump(func(s *TraceStoreStats) {
		s.ScrubRuns++
		s.ScrubFiles += uint64(res.Files)
		s.ScrubCorrupt += uint64(res.Corrupt)
	})
	return res
}

// Stats returns a traffic snapshot.
func (ts *TraceStore) Stats() TraceStoreStats {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.stats
}

func (ts *TraceStore) bump(f func(*TraceStoreStats)) {
	ts.mu.Lock()
	f(&ts.stats)
	ts.mu.Unlock()
}
