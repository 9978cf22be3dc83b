package core

// Tracker-level differential harness: randomized (depth, region, addr, op)
// streams replayed through the shadow tracker and the legacy map oracle
// side-by-side, comparing every load answer and every batched memRun hit
// list. Unlike the full-suite oracles (which only exercise addresses real
// benchmarks produce), the stream generator deliberately lands on the
// boundaries — region cap edges, shadow page edges, the overflow-map
// fallback, stack-filter limits, generation churn, and pages recycled
// through shadowPages. The same driver backs FuzzTrackerDifferential.

import (
	"fmt"
	"math/rand"
	"testing"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/interp"
	"loopapalooza/internal/ir"
)

// diffGlobalWords sizes the test module's global segment: a regLow cap
// (GlobalBase+100 = 116) inside the first page, so that page is only
// partly flat.
const diffGlobalWords = 100

// diffGlobalEnd is the resulting regLow flat cap.
const diffGlobalEnd = int64(interp.GlobalBase + diffGlobalWords)

// trackerDiffInfo builds the module the differential trackers run against.
func trackerDiffInfo() *analysis.ModuleInfo {
	m := ir.NewModule("tracker-diff")
	m.Globals = append(m.Globals, &ir.Global{Nm: "g", Size: diffGlobalWords, Elem: ir.Int})
	return &analysis.ModuleInfo{Mod: m}
}

// diffHeapCap / diffStackCap are the shrunken flat-region caps the
// differential driver installs on its shadow tracker. The production caps
// put the flat/overflow boundary megabytes in (heapFlatCap = 1<<24 words),
// out of reach of offsets a selector byte can pick; the boundary LOGIC is
// cap-relative, so a small cap exercises the identical paths — the
// directory clamped at the cap, the last flat cell, the first overflow
// cell — next to the page edges. The heap cap is not a page multiple (its
// last page is only partly flat); the stack cap is exactly one page. The
// map oracle has no caps at all, which is exactly why the differential
// stays valid under the override.
const (
	diffHeapCap  = 3*pageSize + 500
	diffStackCap = pageSize
)

// diffAddr maps two selector bytes to an address, biased so every region
// boundary the shadow tracker special-cases is reachable: page interiors,
// the last and first cells of adjacent pages, region cap edges (flat vs
// overflow), the gaps between segments, negative wild pointers, and both
// ends of the stack window.
func diffAddr(sel, lo byte) int64 {
	const stackBase = int64(interp.StackTop) - interp.DefaultStackWords
	o := int64(lo)
	switch sel % 12 {
	case 0:
		return o - 8 // negative and tiny low addresses
	case 1:
		return diffGlobalEnd - 1 - o%4 // regLow clamp edge (last flat cells)
	case 2:
		return diffGlobalEnd + o // just past the regLow cap: overflow
	case 3:
		return int64(interp.HeapBase) - 1 - o // gap below heap: overflow
	case 4:
		return int64(interp.HeapBase) + o // first heap page
	case 5:
		// Page edges k·pageSize−1 and k·pageSize for k = 1..3, all
		// below the heap cap.
		return int64(interp.HeapBase) + (1+o%3)*pageSize - 1 + o/3%2
	case 6:
		return int64(interp.HeapBase) + o*257 // a stride over the pages, crossing the cap
	case 7:
		return int64(interp.HeapBase) + diffHeapCap - 1 - o%2 // inside the flat cap
	case 8:
		return int64(interp.HeapBase) + diffHeapCap + o // heap overflow
	case 9:
		return int64(interp.StackTop) - 1 - o // stack top (idx 0..)
	case 10:
		// Straddles the stack flat/overflow boundary: o < 128 lands just
		// past the cap (overflow), o >= 128 in the last flat cells.
		return int64(interp.StackTop) - diffStackCap - 128 + o
	default:
		return stackBase - 1 - o // below the stack: huge heap offset, overflow
	}
}

// runTrackerDiff decodes ops as a scripted stream of tracker operations
// (4 bytes each: op, depth/span selector, address family, offset) and
// replays it through a shadow tracker and the map oracle in lockstep,
// failing on the first divergence. Op streams of any content are safe;
// invalid prefixes simply decode to no-ops.
func runTrackerDiff(tb testing.TB, ops []byte) {
	tb.Helper()
	info := trackerDiffInfo()
	sh := newShadowTracker(info)
	sh.caps[regHeap] = diffHeapCap
	sh.caps[regStack] = diffStackCap
	mp := newMapTracker()
	const maxDepth = 4
	shInst := make([]*instance, maxDepth)
	mpInst := make([]*instance, maxDepth)
	for d := range shInst {
		shInst[d] = &instance{depth: d}
		mpInst[d] = &instance{depth: d}
	}
	const maxSpan = 32
	shIdx := make([]int32, maxSpan)
	shRec := make([]writeRec, maxSpan)
	mpIdx := make([]int32, maxSpan)
	mpRec := make([]writeRec, maxSpan)
	active := 0
	for i, step := 0, 0; i+3 < len(ops); i, step = i+4, step+1 {
		op, sel, fam, off := ops[i], ops[i+1], ops[i+2], ops[i+3]
		switch op % 8 {
		case 0: // enter the next nesting level
			if active < maxDepth {
				sh.enter(shInst[active])
				mp.enter(mpInst[active])
				active++
			}
		case 1: // drop the deepest level; with none active, release
			if active > 0 {
				active--
				sh.drop(shInst[active])
				mp.drop(mpInst[active])
				continue
			}
			// The shadow tracker's pages go back to shadowPages, so the
			// next enters reuse pages still holding this run's stamps.
			// The oracle has nothing to release: its instances start
			// empty on enter anyway.
			sh.release()
		case 2, 3: // store at a random live depth
			if active == 0 {
				continue
			}
			d := int(sel) % active
			addr := diffAddr(fam, off)
			r, idx := region(addr)
			rec := writeRec{iter: int64(sel % 7), off: int64(off)}
			sh.storeAt(shInst[d], r, idx, addr, rec)
			mp.storeAt(mpInst[d], r, idx, addr, rec)
		case 4, 5: // load and compare
			if active == 0 {
				continue
			}
			d := int(sel) % active
			addr := diffAddr(fam, off)
			r, idx := region(addr)
			sr, sok := sh.loadAt(shInst[d], r, idx, addr)
			mr, mok := mp.loadAt(mpInst[d], r, idx, addr)
			if sok != mok || sr != mr {
				tb.Fatalf("step %d: loadAt(depth %d, addr %#x) diverged: shadow (%+v, %v) vs map (%+v, %v)",
					step, d, addr, sr, sok, mr, mok)
			}
		default: // batched memRun span
			if active == 0 {
				continue
			}
			d := int(sel) % active
			// The span contents derive from the op bytes via a local PRNG,
			// so the fuzzer steers them deterministically.
			rng := rand.New(rand.NewSource(int64(sel)<<16 | int64(fam)<<8 | int64(off)))
			n := 1 + int(fam)%16
			evs := make([]memEv, 0, n)
			tick := int64(0)
			for j := 0; j < n; j++ {
				addr := diffAddr(byte(rng.Intn(256)), byte(rng.Intn(256)))
				r, idx := region(addr)
				evs = append(evs, memEv{idx: idx, addr: addr, tick: tick,
					kind: uint8(rng.Intn(2)), reg: int8(r)})
				tick += int64(rng.Intn(5))
			}
			iter, offBase := int64(off%9), int64(sel)
			var spLimit int64
			if off%2 == 0 {
				// Exercise the cactus-stack filter boundary: addresses in
				// [spLimit, StackTop) are tracked, below it skipped.
				spLimit = int64(interp.StackTop) - 1 - int64(fam)
			}
			ns := sh.memRun(shInst[d], evs, iter, offBase, spLimit, shIdx, shRec)
			nm := mp.memRun(mpInst[d], evs, iter, offBase, spLimit, mpIdx, mpRec)
			if ns != nm {
				tb.Fatalf("step %d: memRun(depth %d, %d evs) hit count diverged: shadow %d vs map %d",
					step, d, len(evs), ns, nm)
			}
			for h := 0; h < ns; h++ {
				if shIdx[h] != mpIdx[h] || shRec[h] != mpRec[h] {
					tb.Fatalf("step %d: memRun hit %d diverged: shadow (ev %d, %+v) vs map (ev %d, %+v)",
						step, h, shIdx[h], shRec[h], mpIdx[h], mpRec[h])
				}
			}
		}
	}
}

// TestTrackerDifferentialProperty replays randomized operation streams
// through both trackers — the unit-level counterpart of the full-suite
// differential oracles, reaching boundary addresses real benchmarks never
// produce.
func TestTrackerDifferentialProperty(t *testing.T) {
	for trial := 0; trial < 32; trial++ {
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0x10ad + int64(trial)))
			ops := make([]byte, 4*(200+rng.Intn(400)))
			rng.Read(ops)
			runTrackerDiff(t, ops)
		})
	}
}

// TestShadowPageGeometry pins the page directory at the edges of each
// region's flat cap: the first store into a page allocates exactly that
// page, the directory covers the page index without outgrowing the
// region (also when it doubles past the region's middle), and the last
// flat cell at each cap is paged and reads back. Where the cap lies
// inside the region (low, heap), the cell at the cap goes to the overflow
// map with no page at all; the stack's cap is the end of its segment.
func TestShadowPageGeometry(t *testing.T) {
	caps := newShadowTracker(trackerDiffInfo()).caps
	regs := []struct {
		name string
		r    int
		addr func(idx int64) int64 // inverse of region()
	}{
		{"low", regLow, func(idx int64) int64 { return idx }},
		{"heap", regHeap, func(idx int64) int64 { return int64(interp.HeapBase) + idx }},
		{"stack", regStack, func(idx int64) int64 { return int64(interp.StackTop) - 1 - idx }},
	}
	for _, reg := range regs {
		limit := caps[reg.r]
		maxDir := int((limit + pageMask) >> pageShift)
		for _, idx := range []int64{0, pageSize - 1, pageSize, 5*pageSize + 6, limit/2 + pageSize, limit - 1} {
			if idx >= limit {
				continue // regLow's cap (116) lies inside the first page
			}
			sh := newShadowTracker(trackerDiffInfo())
			inst := &instance{depth: 0}
			sh.enter(inst)
			lvl := sh.levels[0]
			store := func(addr int64, rec writeRec) {
				r, i := region(addr)
				sh.storeAt(inst, r, i, addr, rec)
			}
			pages := func() int {
				n := 0
				for _, dir := range lvl.pages {
					for _, pg := range dir {
						if pg != nil {
							n++
						}
					}
				}
				return n
			}
			addr := reg.addr(idx)
			if r, i := region(addr); r != reg.r || i != idx {
				t.Fatalf("%s: region(%#x) = (%d, %d), want (%d, %d)", reg.name, addr, r, i, reg.r, idx)
			}
			want := writeRec{iter: 1, off: idx}
			store(addr, want)
			dir := lvl.pages[reg.r]
			if n := pages(); n != 1 {
				t.Errorf("%s idx %d: first store allocated %d pages, want 1", reg.name, idx, n)
			}
			if pi := int(idx >> pageShift); pi >= len(dir) || dir[pi] == nil {
				t.Errorf("%s idx %d: directory of %d entries does not hold page %d", reg.name, idx, len(dir), pi)
			}
			if len(dir) > maxDir {
				t.Errorf("%s idx %d: directory of %d entries outgrows the region's %d pages", reg.name, idx, len(dir), maxDir)
			}
			// A store to the neighbouring cell of the same page
			// allocates nothing.
			store(reg.addr(idx^1), writeRec{iter: 2})
			if n := pages(); n != 1 {
				t.Errorf("%s idx %d: store into a held page allocated another (%d held)", reg.name, idx, n)
			}
			if rec, ok := sh.loadAt(inst, reg.r, idx, addr); !ok || rec != want {
				t.Errorf("%s idx %d: loadAt = (%+v, %v), want (%+v, true)", reg.name, idx, rec, ok, want)
			}
			// The first cell of the next page takes one more page; the
			// directory may double to reach it, but not past the region.
			if next := (idx | pageMask) + 1; next < limit {
				store(reg.addr(next), writeRec{iter: 4})
				dir = lvl.pages[reg.r]
				if n := pages(); n != 2 || len(dir) > maxDir {
					t.Errorf("%s idx %d: store into the next page left %d pages and a %d-entry directory, want 2 and <= %d",
						reg.name, idx, n, len(dir), maxDir)
				}
			}
			if r, _ := region(reg.addr(limit)); r != reg.r {
				continue
			}
			before := pages()
			store(reg.addr(limit), writeRec{iter: 3})
			if n := pages(); n != before || len(lvl.over) != 1 {
				t.Errorf("%s: store at the cap (idx %d) left %d pages (was %d) and %d overflow entries, want 1",
					reg.name, limit, n, before, len(lvl.over))
			}
		}
	}
}

// TestShadowOverflowPruneBounded pins the overflow-map prune on generation
// bump: 10k enter/drop cycles, each storing fresh wild addresses, must not
// accumulate stale records. Before the prune, every cycle's overflow
// entries outlived their instance forever; now a bump clears any map past
// overflowPruneLimit, so retention is bounded by limit + one cycle's
// writes regardless of churn.
func TestShadowOverflowPruneBounded(t *testing.T) {
	sh := newShadowTracker(trackerDiffInfo())
	inst := &instance{depth: 0}
	const cycles, perCycle = 10000, 8
	for c := 0; c < cycles; c++ {
		sh.enter(inst)
		// Fresh overflow addresses every cycle: beyond the heap flat cap.
		base := int64(interp.HeapBase) + heapFlatCap + int64(c*perCycle)
		for j := int64(0); j < perCycle; j++ {
			addr := base + j
			r, idx := region(addr)
			sh.storeAt(inst, r, idx, addr, writeRec{iter: int64(c), off: j})
			// The live instance still sees its own overflow writes.
			if rec, ok := sh.loadAt(inst, r, idx, addr); !ok || rec.iter != int64(c) {
				t.Fatalf("cycle %d: own overflow write invisible (ok=%v rec=%+v)", c, ok, rec)
			}
		}
		sh.drop(inst)
	}
	if n := len(sh.levels[0].over); n > overflowPruneLimit+perCycle {
		t.Fatalf("overflow map retains %d records after %d enter/drop cycles, want <= %d: stale entries accumulate across generations",
			n, cycles, overflowPruneLimit+perCycle)
	}
}
