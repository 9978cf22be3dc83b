package core

import (
	"sync"
	"sync/atomic"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/interp"
)

// depTracker stores, per active loop instance, the last cross-iteration
// write to each address. The engine owns all policy (cactus-stack
// exemption, same-iteration and committed-phase filtering, conflict
// handling); the tracker is pure storage.
//
// All access methods take the address's region classification (r, idx)
// alongside the raw address: callers classify with region() ONCE per event
// (or once per address run, on the batched paths) and the tracker never
// re-derives it — the region branch is hoisted out of the per-event call.
type depTracker interface {
	// enter prepares (or resets) storage for an instance that begins
	// tracking. inst.depth is its nesting level, unique among active
	// instances.
	enter(inst *instance)
	// loadAt returns the recorded write covering addr for inst, if any.
	// (r, idx) must be region(addr).
	loadAt(inst *instance, r int, idx int64, addr int64) (writeRec, bool)
	// storeAt records a write at addr for inst. (r, idx) must be
	// region(addr).
	storeAt(inst *instance, r int, idx int64, addr int64, rec writeRec)
	// memRun resolves a whole run of mixed load/store records for inst in
	// ONE call — the hot path of chunk replay, which probes every record
	// of every memory span once per live instance. Each memEv carries its
	// kind, region classification, and the clock advance accumulated
	// inside the run before it (the engine applies the run's total to its
	// clock afterwards; no other event can occur inside a run).
	//
	// Stores record writeRec{iter: iter, off: offBase + ev.tick} — iter
	// and offBase are run constants because iteration boundaries end a
	// run. Loads that find a record append (record index, record) to
	// hitIdx/hitRecs; memRun returns the hit count and the engine applies
	// the RAW policy afterwards, in record order (loads are pure, and
	// hits are rare, so deferring policy keeps this loop branch-light).
	//
	// Records with reg == regStack and addr < spLimit are skipped
	// wholesale: the engine pre-resolves its cactus-stack exemption
	// (frames pushed after the current iteration began, i.e. addresses
	// below the iteration-start SP, are iteration-private) into that one
	// bound so the filter costs a compare here instead of a callback.
	memRun(inst *instance, evs []memEv,
		iter, offBase, spLimit int64, hitIdx []int32, hitRecs []writeRec) int
	// drop discards inst's write set (the instance serialized or exited).
	drop(inst *instance)
}

// memRun record kinds.
const (
	memLoad  uint8 = 0
	memStore uint8 = 1
)

// memEv is one memory record of a sealed chunk's memory span: the address
// with its region classification precomputed (reg, idx), the record kind,
// and the clock advance accumulated inside the span before this record.
// One 32-byte record per event keeps the batched tracker loop on a single
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
	// page, 8 KiB of stamps plus 16 KiB of records.
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
type shadowRec struct {
	gen uint64
	writeRec
}

// shadowPage is pageSize consecutive region offsets of one level's flat
// shadow memory, in structure-of-arrays layout: generation stamps in their
// own densely-packed array, the write records in a parallel one. The
// common miss — a stale generation — touches only the 8-byte stamp, so
// one cache line answers eight addresses.
type shadowPage struct {
	gens [pageSize]uint64
	recs [pageSize]writeRec
}

// shadowPages recycles pages across runs. A page comes back holding its
// last owner's stamps and is reused as is: every generation is drawn once
// from shadowGen, so no stale stamp equals a live level's generation.
var shadowPages = sync.Pool{New: func() any { return new(shadowPage) }}

// shadowGen issues the generation of every level in the process. It never
// issues 0, the stamp of a new page.
var shadowGen atomic.Uint64

// shadowLevel is the shadow memory of one loop-nesting level. Exactly one
// active instance occupies a level at a time (levels are stack depths), so
// a single generation distinguishes the current instance's writes from
// stale ones.
type shadowLevel struct {
	gen   uint64
	pages [3][]*shadowPage // page directory per region, indexed by offset>>pageShift
	over  map[int64]shadowRec
}

// bump starts a new generation, invalidating every record the previous
// occupant of this level left behind, and prunes an oversized overflow
// map (whose entries are now all stale) so dead records do not accumulate
// across enter/drop cycles.
func (lvl *shadowLevel) bump() {
	lvl.gen = shadowGen.Add(1)
	if len(lvl.over) > overflowPruneLimit {
		clear(lvl.over)
	}
}

// page returns the page holding flat offset idx of region r, or nil before
// the level's first store into it. It is small enough to inline, so the
// batched loops pay no call for it.
func (lvl *shadowLevel) page(r int, idx int64) *shadowPage {
	if pi := uint64(idx) >> pageShift; pi < uint64(len(lvl.pages[r])) {
		return lvl.pages[r][pi]
	}
	return nil
}

// shadowTracker implements depTracker with generation-stamped paged
// tables.
type shadowTracker struct {
	levels []*shadowLevel
	caps   [3]int64 // flat-region cap per region
}

func newShadowTracker(info *analysis.ModuleInfo) *shadowTracker {
	t := &shadowTracker{}
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
func (t *shadowTracker) touch(lvl *shadowLevel, r int, idx int64) *shadowPage {
	pi := int(idx >> pageShift)
	dir := lvl.pages[r]
	if pi >= len(dir) {
		n := min(max(pi+1, 2*len(dir)), int((t.caps[r]+pageMask)>>pageShift))
		grown := make([]*shadowPage, n)
		copy(grown, dir)
		dir = grown
		lvl.pages[r] = dir
	}
	pg := shadowPages.Get().(*shadowPage)
	dir[pi] = pg
	return pg
}

// release returns every page to shadowPages and drops the levels, so a
// page is never in two directories. Call it once, after the engine has
// replayed its last event. A nil tracker (an engine on a test's map
// tracker) has nothing to release.
func (t *shadowTracker) release() {
	if t == nil {
		return
	}
	for _, lvl := range t.levels {
		for _, dir := range lvl.pages {
			for _, pg := range dir {
				if pg != nil {
					shadowPages.Put(pg)
				}
			}
		}
	}
	t.levels = nil
}

func (t *shadowTracker) enter(inst *instance) {
	for int(inst.depth) >= len(t.levels) {
		t.levels = append(t.levels, &shadowLevel{})
	}
	t.levels[inst.depth].bump()
}

func (t *shadowTracker) drop(inst *instance) {
	// Stale records are invalidated (and oversized overflow maps pruned)
	// by the next occupant's generation bump; nothing to clear now.
}

func (t *shadowTracker) loadAt(inst *instance, r int, idx int64, addr int64) (writeRec, bool) {
	lvl := t.levels[inst.depth]
	if uint64(idx) >= uint64(t.caps[r]) {
		rec, ok := lvl.over[addr]
		if !ok || rec.gen != lvl.gen {
			return writeRec{}, false
		}
		return rec.writeRec, true
	}
	pg := lvl.page(r, idx)
	if pg == nil || pg.gens[idx&pageMask] != lvl.gen {
		return writeRec{}, false
	}
	return pg.recs[idx&pageMask], true
}

func (t *shadowTracker) storeAt(inst *instance, r int, idx int64, addr int64, rec writeRec) {
	lvl := t.levels[inst.depth]
	if uint64(idx) >= uint64(t.caps[r]) {
		if lvl.over == nil {
			lvl.over = map[int64]shadowRec{}
		}
		lvl.over[addr] = shadowRec{gen: lvl.gen, writeRec: rec}
		return
	}
	pg := lvl.page(r, idx)
	if pg == nil {
		pg = t.touch(lvl, r, idx)
	}
	pg.gens[idx&pageMask] = lvl.gen
	pg.recs[idx&pageMask] = rec
}

// memRun is the shadow fast path for a mixed load/store run: the level and
// its generation are hoisted out of the per-record loop, so the common
// case — a flat store, or a flat load missing on a stale generation —
// costs one cap compare, one directory index and one stamp access. Thanks
// to the SoA page layout, a miss touches only the 8-byte stamp.
func (t *shadowTracker) memRun(inst *instance, evs []memEv,
	iter, offBase, spLimit int64, hitIdx []int32, hitRecs []writeRec) int {
	lvl := t.levels[inst.depth]
	gen := lvl.gen
	nh := 0
	for i := range evs {
		ev := &evs[i]
		r := int(ev.reg)
		idx := ev.idx
		if r == regStack && ev.addr < spLimit {
			continue
		}
		flat := uint64(idx) < uint64(t.caps[r])
		if ev.kind == memStore {
			rec := writeRec{iter: iter, off: offBase + ev.tick}
			if !flat {
				if lvl.over == nil {
					lvl.over = map[int64]shadowRec{}
				}
				lvl.over[ev.addr] = shadowRec{gen: gen, writeRec: rec}
				continue
			}
			pg := lvl.page(r, idx)
			if pg == nil {
				pg = t.touch(lvl, r, idx)
			}
			pg.gens[idx&pageMask] = gen
			pg.recs[idx&pageMask] = rec
			continue
		}
		// Load.
		if !flat {
			rec, ok := lvl.over[ev.addr]
			if !ok || rec.gen != gen {
				continue
			}
			hitIdx[nh], hitRecs[nh] = int32(i), rec.writeRec
			nh++
			continue
		}
		pg := lvl.page(r, idx)
		if pg == nil || pg.gens[idx&pageMask] != gen {
			continue
		}
		hitIdx[nh], hitRecs[nh] = int32(i), pg.recs[idx&pageMask]
		nh++
	}
	return nh
}
