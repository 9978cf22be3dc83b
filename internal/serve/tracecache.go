package serve

// The trace tier of the result cache. The full result cache (cache.go) is
// keyed by (name, source, config, budgets): a novel configuration of an
// already-seen program misses it and, without this tier, re-interprets the
// program from scratch. The trace tier is keyed by (name, source, budgets)
// only — the recorded event stream is configuration-independent — so a
// cached trace serves ANY configuration by replay, which costs decode +
// engine work instead of interpretation.
//
// Entries are (module analysis, trace bytes) pairs under a byte-budget
// LRU that charges each entry its trace bytes plus an estimate of the heap
// its analysis pins (analysisCharge). Traces are recorded into a capped
// in-memory buffer during the (single) live run of a program; a run whose
// trace outgrows the per-entry cap still completes normally — the trace is
// simply not cached.

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"sync"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/bytecode"
)

// DefaultTraceCacheBytes bounds the trace tier when Options leave it zero.
const DefaultTraceCacheBytes = 64 << 20

// TraceKey computes the trace tier's content address: like Key, but
// configuration-independent.
func TraceKey(name, source string, b Budgets) string {
	h := sha256.New()
	for _, s := range []string{name, source} {
		io.WriteString(h, s)
		h.Write([]byte{0})
	}
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(b.MaxSteps))
	binary.LittleEndian.PutUint64(buf[8:], uint64(b.MaxHeapCells))
	binary.LittleEndian.PutUint64(buf[16:], uint64(b.TimeoutMs))
	h.Write(buf[:])
	return hex.EncodeToString(h.Sum(nil))
}

// TraceCacheStats is a monotonic snapshot of trace-tier traffic.
type TraceCacheStats struct {
	// Hits counts analyze fills served by trace replay.
	Hits uint64
	// Misses counts trace-tier lookups that fell through to a live run.
	Misses uint64
	// Evictions counts entries dropped by the byte budget.
	Evictions uint64
	// Skipped counts traces not stored because they outgrew the per-entry
	// cap.
	Skipped uint64
	// Entries and Bytes describe the current store (not monotonic).
	// Bytes is what the byte budget is charged: the stored traces'
	// lengths plus the estimated heap of the analyses they pin.
	Entries int
	Bytes   int64
}

// TraceCache is the byte-budget LRU of recorded traces.
type TraceCache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	ll     *list.List // front = most recently used; values are *traceItem
	items  map[string]*list.Element
	stats  TraceCacheStats
}

type traceItem struct {
	key    string
	info   *analysis.ModuleInfo
	trace  []byte
	charge int64 // len(trace) + analysisCharge(info)
}

// The coefficients of analysisCharge, fitted to the live heap of the 57
// suite kernels' analyses (2.00 MB lowered, measured with
// runtime.ReadMemStats after a GC): the module's IR and analysis results
// per IR instruction, and its lowered program per bytecode instruction.
const (
	analysisBytesPerInstr = 280
	loweredBytesPerInst   = 50
)

// analysisCharge estimates the heap info keeps live, from its instruction
// counts: deterministic, and within 2x of the measured heap on the suite
// kernels. The lowered program counts only once info has been lowered.
// It reads the lowering memo unsynchronized, so info must not be lowering
// on another goroutine: the trace tier charges an analysis after the run
// that lowered it returned, or before any run.
func analysisCharge(info *analysis.ModuleInfo) int64 {
	if info == nil {
		return 0
	}
	var instrs int64
	for _, f := range info.Mod.Funcs {
		for _, b := range f.Blocks {
			instrs += int64(len(b.Instrs))
		}
	}
	n := analysisBytesPerInstr * instrs
	if p, ok := info.Lowered.Prog.(*bytecode.Program); ok {
		n += loweredBytesPerInst * p.StaticInsts()
	}
	return n
}

// NewTraceCache returns a trace tier bounded to budget bytes of stored
// traces and the analyses they pin (budget <= 0 = DefaultTraceCacheBytes).
func NewTraceCache(budget int64) *TraceCache {
	if budget <= 0 {
		budget = DefaultTraceCacheBytes
	}
	return &TraceCache{
		budget: budget,
		ll:     list.New(),
		items:  map[string]*list.Element{},
	}
}

// EntryCap is the largest entry the cache will store, trace and analysis
// charge together: a quarter of the budget, so a hot set of at least four
// programs always fits.
func (tc *TraceCache) EntryCap() int64 { return tc.budget / 4 }

// Get returns the stored trace and its module analysis, counting the
// lookup either way.
func (tc *TraceCache) Get(key string) (*analysis.ModuleInfo, []byte, bool) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	el, ok := tc.items[key]
	if !ok {
		tc.stats.Misses++
		return nil, nil, false
	}
	tc.ll.MoveToFront(el)
	tc.stats.Hits++
	it := el.Value.(*traceItem)
	return it.info, it.trace, true
}

// Put stores one recorded trace with the analysis it replays against,
// charging the byte budget len(trace) plus analysisCharge(info) and
// evicting least-recently-used entries past it. Entries over the
// per-entry cap are skipped (counted, not an error).
func (tc *TraceCache) Put(key string, info *analysis.ModuleInfo, trace []byte) {
	charge := int64(len(trace)) + analysisCharge(info)
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if charge > tc.EntryCap() {
		tc.stats.Skipped++
		return
	}
	if el, ok := tc.items[key]; ok {
		it := el.Value.(*traceItem)
		tc.bytes += charge - it.charge
		it.info, it.trace, it.charge = info, trace, charge
		tc.ll.MoveToFront(el)
	} else {
		tc.items[key] = tc.ll.PushFront(&traceItem{key: key, info: info, trace: trace, charge: charge})
		tc.bytes += charge
	}
	for tc.bytes > tc.budget {
		tail := tc.ll.Back()
		it := tail.Value.(*traceItem)
		tc.ll.Remove(tail)
		delete(tc.items, it.key)
		tc.bytes -= it.charge
		tc.stats.Evictions++
	}
}

// Drop removes one entry (a trace that failed to replay — corrupt or
// recorded by a different build).
func (tc *TraceCache) Drop(key string) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if el, ok := tc.items[key]; ok {
		it := el.Value.(*traceItem)
		tc.ll.Remove(el)
		delete(tc.items, it.key)
		tc.bytes -= it.charge
	}
}

// Stats returns a traffic snapshot.
func (tc *TraceCache) Stats() TraceCacheStats {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	s := tc.stats
	s.Entries = tc.ll.Len()
	s.Bytes = tc.bytes
	return s
}

// cappedBuffer is the trace sink of a live run: it accepts writes up to
// cap bytes and silently discards the rest (recording a trace must never
// fail the run it rides on), flagging the overflow so the truncated trace
// is not cached. Each write is kept as its own block and bytes joins
// them into one exact-size slice once the run has succeeded, so
// recording an N-byte trace allocates about 2N, where growing one slice
// would allocate about 5N and leave spare capacity the cache does not
// charge for.
type cappedBuffer struct {
	cap      int64
	size     int64 // bytes kept
	blocks   [][]byte
	overflow bool
}

func (b *cappedBuffer) Write(p []byte) (int, error) {
	keep := p
	if room := b.cap - b.size; room < int64(len(p)) {
		b.overflow = true
		keep = p[:max(room, 0)]
	}
	if len(keep) > 0 {
		b.blocks = append(b.blocks, append([]byte(nil), keep...))
		b.size += int64(len(keep))
	}
	return len(p), nil
}

// bytes returns everything kept, as one slice of exactly that length.
func (b *cappedBuffer) bytes() []byte {
	if len(b.blocks) == 1 {
		return b.blocks[0]
	}
	out := make([]byte, 0, b.size)
	for _, blk := range b.blocks {
		out = append(out, blk...)
	}
	return out
}
