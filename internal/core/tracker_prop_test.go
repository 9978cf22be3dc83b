package core

// Tracker-level differential harness: randomized (depth, region, addr, op)
// streams replayed through the shadow memory and the map oracle
// side-by-side, in both of its roles. As a one-class engine's depTracker,
// every load answer is compared; as a run tracker's store, the loop and
// memory events of the stream are sealed into chunks and every chunk's
// facts are compared. Unlike the full-suite oracles (which only exercise
// addresses real benchmarks produce), the stream generator deliberately
// lands on the boundaries — region cap edges, shadow page edges, the
// overflow-map fallback, stack-filter limits, generation churn, and pages
// recycled through the page pools. The same driver backs
// FuzzTrackerDifferential.

import (
	"fmt"
	"math/rand"
	"slices"
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
// replays it through the shadow memory and the map oracle in lockstep,
// failing on the first divergence. The per-event trackers take stores and
// loads at a chosen level directly; the run trackers see the same
// operations as loop and memory events, including loops no class tracks
// and iteration boundaries, and their facts are compared chunk by chunk.
// Op streams of any content are safe; invalid prefixes simply decode to
// no-ops.
func runTrackerDiff(tb testing.TB, ops []byte) {
	tb.Helper()
	info := trackerDiffInfo()
	sh := newShadowTracker(info)
	shFacts := newShadowFacts(info)
	for _, caps := range []*[3]int64{&sh.caps, &shFacts.caps} {
		caps[regHeap] = diffHeapCap
		caps[regStack] = diffStackCap
	}
	mp := newMapTracker[writeRec]()
	// The one configuration serializes loops with calls, so a level
	// entered on the called meta is one no class tracks.
	cfgs := []Config{{Model: DOALL}}
	free, called := fakeMeta(), fakeMeta()
	called.HasCall = true
	shRun := newRunTracker(nil, shFacts)
	mpRun := newRunTracker(nil, mapFacts{newMapTracker[factRec]()})
	shRun.cfgs, mpRun.cfgs = cfgs, cfgs

	step := 0
	tee := newChunkTee(func(c *evChunk) *evChunk {
		shRun.seal(c)
		want := slices.Clone(c.facts)
		wantSpans := slices.Clone(c.spans)
		mpRun.seal(c)
		if !slices.Equal(c.facts, want) || !slices.Equal(c.spans, wantSpans) {
			tb.Fatalf("step %d: run tracker facts diverged:\nshadow %+v\nmap    %+v", step, want, c.facts)
		}
		return c
	})
	// spOf picks an iteration-start stack pointer: 0 tracks every stack
	// address, a pointer near the top exercises the cactus-stack filter
	// boundary (addresses in [sp, StackTop) tracked, below it skipped).
	spOf := func(fam, off byte) int64 {
		if off%2 == 0 {
			return int64(interp.StackTop) - 1 - int64(fam)
		}
		return 0
	}
	const maxDepth = 4
	var metas []*analysis.LoopMeta // the event stream's loop stack
	var lastStack int64            // the last stack cell the stream stored, or 0
	store := func(addr int64) {
		tee.Store(addr)
		if interp.IsStackAddr(addr) {
			lastStack = addr
		}
	}
	for i := 0; i+3 < len(ops); i, step = i+4, step+1 {
		op, sel, fam, off := ops[i], ops[i+1], ops[i+2], ops[i+3]
		switch op % 8 {
		case 0: // enter the next nesting level
			if len(metas) < maxDepth {
				sh.enter(len(metas))
				mp.enter(len(metas))
				lm := free
				if sel%3 == 0 {
					lm = called
				}
				metas = append(metas, lm)
				tee.EnterLoop(lm, spOf(fam, off), nil)
			}
		case 1: // exit the deepest level; with none active, release
			if n := len(metas); n > 0 {
				tee.ExitLoop(metas[n-1])
				metas = metas[:n-1]
				continue
			}
			// The shadow pages go back to their pools, so the next
			// enters reuse pages still holding this run's stamps. The
			// oracle has nothing to release: its levels start empty on
			// enter anyway. The run trackers seal what they have seen
			// before their store lets go of it.
			sh.release()
			tee.flush()
			shFacts.release()
		case 2, 3: // store at a random live depth
			if len(metas) == 0 {
				continue
			}
			d := int(sel) % len(metas)
			addr := diffAddr(fam, off)
			r, idx := region(addr)
			rec := writeRec{iter: int64(sel % 7), off: int64(off)}
			sh.store(d, r, idx, addr, rec)
			mp.store(d, r, idx, addr, rec)
			tee.Tick(int64(off % 4))
			store(addr)
		case 4, 5: // load and compare
			if len(metas) == 0 {
				continue
			}
			d := int(sel) % len(metas)
			addr := diffAddr(fam, off)
			r, idx := region(addr)
			sr, sok := sh.load(d, r, idx, addr)
			mr, mok := mp.load(d, r, idx, addr)
			if sok != mok || sr != mr {
				tb.Fatalf("step %d: load(depth %d, addr %#x) diverged: shadow (%+v, %v) vs map (%+v, %v)",
					step, d, addr, sr, sok, mr, mok)
			}
			tee.Tick(int64(off % 4))
			tee.Load(addr)
		case 6: // the innermost loop starts its next iteration
			if n := len(metas); n > 0 {
				sp := spOf(fam, off)
				// Or the iteration's stack bound lands on, or just
				// above, the last stored stack cell, which is then
				// reloaded: tracked at the bound, skipped below it.
				bound := lastStack != 0 && sel%2 == 0
				if bound {
					sp = lastStack + int64(sel/2%2)
				}
				tee.Tick(int64(sel % 4))
				tee.IterLoop(metas[n-1], sp, nil)
				if bound {
					tee.Load(lastStack)
				}
			}
		default: // a memory span
			// The span contents derive from the op bytes via a local PRNG,
			// so the fuzzer steers them deterministically.
			rng := rand.New(rand.NewSource(int64(sel)<<16 | int64(fam)<<8 | int64(off)))
			for n := 1 + int(fam)%16; n > 0; n-- {
				tee.Tick(int64(rng.Intn(5)))
				addr := diffAddr(byte(rng.Intn(256)), byte(rng.Intn(256)))
				if rng.Intn(2) == 0 {
					tee.Load(addr)
				} else {
					store(addr)
				}
			}
		}
	}
	tee.finish()
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
			sh.enter(0)
			lvl := sh.levels[0]
			store := func(addr int64, rec writeRec) {
				r, i := region(addr)
				sh.store(0, r, i, addr, rec)
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
			if rec, ok := sh.load(0, reg.r, idx, addr); !ok || rec != want {
				t.Errorf("%s idx %d: load = (%+v, %v), want (%+v, true)", reg.name, idx, rec, ok, want)
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
// bump: 10k enter cycles, each storing fresh wild addresses, must not
// accumulate stale records. Before the prune, every cycle's overflow
// entries outlived their instance forever; now a bump clears any map past
// overflowPruneLimit, so retention is bounded by limit + one cycle's
// writes regardless of churn.
func TestShadowOverflowPruneBounded(t *testing.T) {
	sh := newShadowTracker(trackerDiffInfo())
	const cycles, perCycle = 10000, 8
	for c := 0; c < cycles; c++ {
		sh.enter(0)
		// Fresh overflow addresses every cycle: beyond the heap flat cap.
		base := int64(interp.HeapBase) + heapFlatCap + int64(c*perCycle)
		for j := int64(0); j < perCycle; j++ {
			addr := base + j
			r, idx := region(addr)
			sh.store(0, r, idx, addr, writeRec{iter: int64(c), off: j})
			// The live instance still sees its own overflow writes.
			if rec, ok := sh.load(0, r, idx, addr); !ok || rec.iter != int64(c) {
				t.Fatalf("cycle %d: own overflow write invisible (ok=%v rec=%+v)", c, ok, rec)
			}
		}
	}
	if n := len(sh.levels[0].over); n > overflowPruneLimit+perCycle {
		t.Fatalf("overflow map retains %d records after %d enter cycles, want <= %d: stale entries accumulate across generations",
			n, cycles, overflowPruneLimit+perCycle)
	}
}
