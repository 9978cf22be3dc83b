package core

// One dependence tracker per run. The paper finds memory conflicts from
// one instrumented execution and then applies each execution model to
// them (§III-B); a run whose configurations coalesce into several engine
// classes does the same. Its runTracker, driven by the chunk producer,
// probes every memory record of a sealed chunk once per tracked loop
// level and appends each cross-iteration load hit to the chunk as a fact.
// The classes never probe memory: each replays the chunk's loop events
// and applies the facts at the levels where its own instance is live,
// through the same loadHit policy the per-event route uses.
//
// Only two inputs of conflict detection differ by class, and both are
// settled on the class side. Which instances are live: the tracker tracks
// every instance some class does not statically serialize, so each
// class's live instances are among them and a class skips facts at other
// levels. And the adjusted-clock offset of a write, which inner-loop
// savings shift by class: the tracker stores the raw offset with the
// loop-event ordinals of the write and of its iteration's start, and a
// HELIX class, the only model that reads offsets, subtracts its own
// savings between the two (Engine.applyFacts).

import "loopapalooza/internal/analysis"

// factRec is the run tracker's record of one write, the same for every
// class: the writer's iteration, the write's offset on the raw (serial)
// clock inside that iteration, and the loop-event ordinals of the write
// and of its iteration's start.
type factRec struct {
	iter  int64
	raw   int64
	ord   int64
	start int64
}

// fact is one cross-iteration load hit: the load's index among its memory
// span's records, the nesting level of the instance it conflicts in, and
// the write it read.
type fact struct {
	mem   int32
	level int32
	rec   factRec
}

// factStore is the run tracker's storage: the shadow memory in production
// (shadowFacts), the map tracker in tests.
type factStore interface {
	// enter resets level's storage for an instance that begins tracking
	// there.
	enter(level int)
	// scan applies one memory span at level in record order: a store
	// records at, its raw offset advanced by the record's tick; a load
	// that finds a write of an earlier iteration than at.iter appends a
	// fact. Stack records below spLimit, the iteration-start stack
	// pointer, are skipped: frames pushed after the iteration began are
	// iteration-private (§II-E).
	scan(level int, evs []memEv, at factRec, spLimit int64, facts []fact) []fact
	// release hands the storage back for reuse by later runs.
	release()
}

// shadowFacts is the production factStore.
type shadowFacts struct{ *shadowMem[factRec] }

func newShadowFacts(info *analysis.ModuleInfo) shadowFacts {
	return shadowFacts{newShadowMem[factRec](info, &factPages)}
}

// scan hoists the level and its generation out of the record loop, so a
// flat store, or a flat load missing on a stale generation, costs one cap
// compare, one directory index and one stamp access.
func (t shadowFacts) scan(level int, evs []memEv, at factRec, spLimit int64, facts []fact) []fact {
	lvl := t.levels[level]
	gen := lvl.gen
	for i := range evs {
		ev := &evs[i]
		r, idx := int(ev.reg), ev.idx
		if r == regStack && ev.addr < spLimit {
			continue
		}
		if uint64(idx) >= uint64(t.caps[r]) { // overflow: rare
			if ev.kind == memStore {
				w := at
				w.raw += ev.tick
				lvl.overStore(ev.addr, w)
			} else if rec, ok := lvl.overLoad(ev.addr); ok && rec.iter < at.iter {
				facts = append(facts, fact{mem: int32(i), level: int32(level), rec: rec})
			}
			continue
		}
		pg := lvl.page(r, idx)
		if ev.kind == memStore {
			if pg == nil {
				pg = t.touch(lvl, r, idx)
			}
			pg.gens[idx&pageMask] = gen
			w := &pg.recs[idx&pageMask]
			*w = at
			w.raw += ev.tick
			continue
		}
		if pg == nil || pg.gens[idx&pageMask] != gen {
			continue
		}
		if rec := &pg.recs[idx&pageMask]; rec.iter < at.iter {
			facts = append(facts, fact{mem: int32(i), level: int32(level), rec: *rec})
		}
	}
	return facts
}

// runTracker is the one dependence tracker of a multi-class run. The
// producer seals each chunk through it before any class replays the
// chunk, so it runs on the producing goroutine only.
type runTracker struct {
	store factStore
	cfgs  []Config // one per class
	stack []runInst
	clock int64 // serial clock
	ord   int64 // loop events so far; the n-th loop event has ordinal n
}

// runInst mirrors one active loop instance of the classes' stacks.
type runInst struct {
	meta *analysis.LoopMeta
	// tracked: some class does not statically serialize the loop.
	tracked  bool
	iters    int64
	start    int64 // serial clock at the current iteration's start
	startOrd int64 // ordinal of the loop event that began the iteration
	sp       int64 // stack pointer at the current iteration's start
}

func newRunTracker(engines []*Engine, store factStore) *runTracker {
	t := &runTracker{store: store, cfgs: make([]Config, len(engines))}
	for i, e := range engines {
		t.cfgs[i] = e.cfg
	}
	return t
}

// tracks reports whether some class does not statically serialize lm: the
// union of the loops the classes can track.
func (t *runTracker) tracks(lm *analysis.LoopMeta) bool {
	for _, cfg := range t.cfgs {
		if staticReason(cfg, lm) == SerialNone {
			return true
		}
	}
	return false
}

// seal finds the facts of one chunk. Loop events update the mirror stack
// exactly as Engine's hooks update a class's stack, anomalies included, so
// levels coincide; each memory span is scanned at every tracked level,
// and its facts land in c.facts[s.fstart:s.fend].
func (t *runTracker) seal(c *evChunk) {
	c.facts = c.facts[:0]
	for si := range c.spans {
		s := &c.spans[si]
		if s.kind != evMemSpan {
			t.loopEvent(&c.recs[s.rec])
			continue
		}
		s.fstart = int32(len(c.facts))
		if evs := c.mem[s.mstart:s.mend]; len(evs) > 0 {
			for d := range t.stack {
				if in := &t.stack[d]; in.tracked {
					at := factRec{iter: in.iters, raw: t.clock - in.start, ord: t.ord, start: in.startOrd}
					c.facts = t.store.scan(d, evs, at, in.sp, c.facts)
				}
			}
		}
		s.fend = int32(len(c.facts))
		t.clock += s.sum
	}
}

// loopEvent applies one loop event to the mirror stack.
func (t *runTracker) loopEvent(r *evRec) {
	t.ord++
	n := len(t.stack)
	switch r.kind {
	case evEnter:
		in := runInst{meta: r.lm, tracked: t.tracks(r.lm), start: t.clock, startOrd: t.ord, sp: r.a}
		if in.tracked {
			t.store.enter(n)
		}
		t.stack = append(t.stack, in)
	case evIter:
		if n > 0 && t.stack[n-1].meta == r.lm {
			in := &t.stack[n-1]
			in.iters++
			in.start, in.startOrd, in.sp = t.clock, t.ord, r.a
		}
	case evExit:
		if n > 0 && t.stack[n-1].meta == r.lm {
			t.stack = t.stack[:n-1]
		}
	}
}
