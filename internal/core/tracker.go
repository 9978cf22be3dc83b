package core

import (
	"sync"
	"sync/atomic"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/interp"
)

// depTracker stores, per loop-nesting level, the last cross-iteration
// write to each address: the per-event storage of a one-class run, whose
// engine calls it from Load and Store. The engine owns all policy
// (cactus-stack exemption, same-iteration and committed-phase filtering,
// conflict handling); the tracker is pure storage. A run with more engine
// classes finds its conflicts once instead, in its runTracker (facts.go).
//
// load and store take the address's region classification (r, idx)
// alongside the raw address: callers classify with region() once per
// event and the tracker never re-derives it.
type depTracker interface {
	// enter prepares (or resets) a level's storage for an instance that
	// begins tracking there. Levels are stack depths, so one active
	// instance occupies a level at a time.
	enter(level int)
	// load returns the recorded write covering addr at level, if any.
	load(level, r int, idx, addr int64) (writeRec, bool)
	// store records a write at addr at level.
	store(level, r int, idx, addr int64, rec writeRec)
	// release hands the storage back for reuse by later runs. Call it
	// once, after the last event.
	release()
}

// memEv record kinds.
const (
	memLoad  uint8 = 0
	memStore uint8 = 1
)

// memEv is one memory record of a sealed chunk's memory span: the address
// with its region classification precomputed (reg, idx), the record kind,
// and the clock advance accumulated inside the span before this record.
// One 32-byte record per event keeps the run tracker's scan on a single
// sequential stream.
type memEv struct {
	idx  int64 // dense region offset: region(addr)
	addr int64
	tick int64 // Σ tick payloads inside the span before this record
	kind uint8 // memLoad or memStore
	reg  int8  // region: regLow, regHeap, regStack
}

// Shadow-memory geometry. Guest addresses split into three dense regions
// (low/global, heap, stack); each region of each nesting level is a
// directory of fixed-size pages indexed by the region offset, a page
// allocated on the level's first store into it. Addresses outside a
// region's flat cap (wild pointers, or heaps larger than the flat budget)
// fall back to a per-level overflow map, so a given address is *always*
// flat or *always* overflow for the whole run.
const (
	// regLow covers [0, HeapBase): null, globals, and any stray low
	// address. Its flat cap is the exact end of the global segment.
	regLow = 0
	// regHeap covers [HeapBase, StackTop-DefaultStackWords).
	regHeap = 1
	// regStack covers the stack segment (IsStackAddr).
	regStack = 2

	// heapFlatCap bounds the flat heap region per level; heap offsets at
	// or above it use the overflow map. A level pays only for the pages
	// it stores into, plus a directory reaching the highest of them: at
	// most heapFlatCap/pageSize = 16,384 pointers (128 KiB), which is
	// what one wild store near the cap costs the level.
	heapFlatCap = int64(1) << 24

	// pageShift sets the shadow page size: pageSize region offsets per
	// page, 8 KiB of stamps plus 8 KiB per record word.
	pageShift = 10
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1

	// overflowPruneLimit bounds how many stale overflow records a level
	// may retain across generations. A generation bump invalidates every
	// overflow entry at once, so a map that grew past this limit is
	// cleared wholesale on the next bump instead of haunting deep-nesting
	// runs forever (small maps are cheaper to keep than to rebuild).
	overflowPruneLimit = 64
)

// shadowRec is one overflow-map entry: a generation stamp plus the write
// record. Entries whose gen differs from the level's current generation
// are stale leftovers of earlier instances and read as absent.
type shadowRec[R any] struct {
	gen uint64
	rec R
}

// shadowPage is pageSize consecutive region offsets of one level's flat
// shadow memory, in structure-of-arrays layout: generation stamps in their
// own densely-packed array, the write records in a parallel one. The
// common miss — a stale generation — touches only the 8-byte stamp, so
// one cache line answers eight addresses.
type shadowPage[R any] struct {
	gens [pageSize]uint64
	recs [pageSize]R
}

// writePages and factPages recycle pages across runs: the per-event
// tracker's (8 KiB of stamps plus 16 KiB of records) and the run
// tracker's (8 KiB plus 32 KiB). A page comes back holding its last
// owner's stamps and is reused as is: every generation is drawn once from
// shadowGen, so no stale stamp equals a live level's generation.
var (
	writePages = sync.Pool{New: func() any { return new(shadowPage[writeRec]) }}
	factPages  = sync.Pool{New: func() any { return new(shadowPage[factRec]) }}
)

// shadowGen issues the generation of every level in the process. It never
// issues 0, the stamp of a new page.
var shadowGen atomic.Uint64

// shadowLevel is the shadow memory of one loop-nesting level. Exactly one
// active instance occupies a level at a time (levels are stack depths), so
// a single generation distinguishes the current instance's writes from
// stale ones.
type shadowLevel[R any] struct {
	gen   uint64
	pages [3][]*shadowPage[R] // page directory per region, indexed by offset>>pageShift
	over  map[int64]shadowRec[R]
}

// page returns the page holding flat offset idx of region r, or nil before
// the level's first store into it. It is small enough to inline, so the
// scan loop pays no call for it.
func (lvl *shadowLevel[R]) page(r int, idx int64) *shadowPage[R] {
	if pi := uint64(idx) >> pageShift; pi < uint64(len(lvl.pages[r])) {
		return lvl.pages[r][pi]
	}
	return nil
}

// shadowMem is generation-stamped paged storage of records R per nesting
// level: with writeRec records the production depTracker (shadowTracker),
// with factRec records a run tracker's store (shadowFacts).
type shadowMem[R any] struct {
	levels []*shadowLevel[R]
	caps   [3]int64 // flat-region cap per region
	pages  *sync.Pool
}

func newShadowMem[R any](info *analysis.ModuleInfo, pages *sync.Pool) *shadowMem[R] {
	t := &shadowMem[R]{pages: pages}
	globalEnd := int64(interp.GlobalBase)
	if info != nil && info.Mod != nil {
		for _, g := range info.Mod.Globals {
			globalEnd += g.Size
		}
	}
	t.caps[regLow] = globalEnd
	t.caps[regHeap] = heapFlatCap
	t.caps[regStack] = interp.DefaultStackWords
	return t
}

// region maps an address to its region and dense offset. Offsets outside
// [0, caps[r]) are stored in the level's overflow map.
func region(addr int64) (r int, idx int64) {
	if interp.IsStackAddr(addr) {
		return regStack, interp.StackTop - 1 - addr
	}
	if addr >= interp.HeapBase {
		return regHeap, addr - interp.HeapBase
	}
	return regLow, addr
}

// touch gives lvl a page for flat offset idx of region r, on the level's
// first store into that page. The directory doubles, so a sweep over n
// pages copies O(n) pointers, but never past the region's last page.
func (t *shadowMem[R]) touch(lvl *shadowLevel[R], r int, idx int64) *shadowPage[R] {
	pi := int(idx >> pageShift)
	dir := lvl.pages[r]
	if pi >= len(dir) {
		n := min(max(pi+1, 2*len(dir)), int((t.caps[r]+pageMask)>>pageShift))
		grown := make([]*shadowPage[R], n)
		copy(grown, dir)
		dir = grown
		lvl.pages[r] = dir
	}
	pg := t.pages.Get().(*shadowPage[R])
	dir[pi] = pg
	return pg
}

// release returns every page to the tracker's pool and drops the levels,
// so a page is never in two directories. Call it once, after the last
// event.
func (t *shadowMem[R]) release() {
	for _, lvl := range t.levels {
		for _, dir := range lvl.pages {
			for _, pg := range dir {
				if pg != nil {
					t.pages.Put(pg)
				}
			}
		}
	}
	t.levels = nil
}

// enter starts a new generation at level, invalidating every record the
// previous occupant left behind, and prunes an oversized overflow map
// (whose entries are now all stale) so dead records do not accumulate
// across instances.
func (t *shadowMem[R]) enter(level int) {
	for level >= len(t.levels) {
		t.levels = append(t.levels, &shadowLevel[R]{})
	}
	lvl := t.levels[level]
	lvl.gen = shadowGen.Add(1)
	if len(lvl.over) > overflowPruneLimit {
		clear(lvl.over)
	}
}

// shadowTracker is the production depTracker. Its load and store are
// written for writeRec, not generically, so an interface call reaches the
// code in one step.
type shadowTracker struct{ *shadowMem[writeRec] }

func newShadowTracker(info *analysis.ModuleInfo) shadowTracker {
	return shadowTracker{newShadowMem[writeRec](info, &writePages)}
}

func (t shadowTracker) load(level, r int, idx, addr int64) (writeRec, bool) {
	lvl := t.levels[level]
	if uint64(idx) >= uint64(t.caps[r]) {
		return lvl.overLoad(addr)
	}
	if pg := lvl.page(r, idx); pg != nil && pg.gens[idx&pageMask] == lvl.gen {
		return pg.recs[idx&pageMask], true
	}
	return writeRec{}, false
}

func (t shadowTracker) store(level, r int, idx, addr int64, rec writeRec) {
	lvl := t.levels[level]
	if uint64(idx) >= uint64(t.caps[r]) {
		lvl.overStore(addr, rec)
		return
	}
	pg := lvl.page(r, idx)
	if pg == nil {
		pg = t.touch(lvl, r, idx)
	}
	pg.gens[idx&pageMask] = lvl.gen
	pg.recs[idx&pageMask] = rec
}

// overLoad returns the level's current overflow record for addr, if any.
func (lvl *shadowLevel[R]) overLoad(addr int64) (R, bool) {
	if e, ok := lvl.over[addr]; ok && e.gen == lvl.gen {
		return e.rec, true
	}
	var none R
	return none, false
}

// overStore records a write at addr in the level's overflow map.
func (lvl *shadowLevel[R]) overStore(addr int64, rec R) {
	if lvl.over == nil {
		lvl.over = map[int64]shadowRec[R]{}
	}
	lvl.over[addr] = shadowRec[R]{gen: lvl.gen, rec: rec}
}
