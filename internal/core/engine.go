package core

import (
	"sync"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/interp"
	"loopapalooza/internal/predict"
)

// Engine is the limit-study run-time: it implements interp.Hooks, tracks
// dynamic loop-carried dependencies, applies one execution model under one
// configuration, and produces limit speedups via an adjusted clock.
//
// Time accounting. The serial clock advances one unit per dynamic IR
// instruction. When a loop instance exits and its model cost is lower than
// its serial cost, the difference is added to a global savings counter; the
// *adjusted* clock (serial − savings) is the program's parallel execution
// time. Because enclosing loops measure their iteration lengths on the
// adjusted clock, inner-loop speedups propagate outward — the paper's
// bottom-up cost propagation, and SWARM/T4-style multi-level nested
// parallelism, realized online.
//
// An engine fed event by event finds memory conflicts itself, in a
// depTracker: the shadow memory (paged generation-stamped tables), or in
// tests the map tracker it is checked against. An engine class of a
// multi-class run has no tracker; it applies the facts its run's
// runTracker found (facts.go).
type Engine struct {
	info *analysis.ModuleInfo
	cfg  Config
	tr   depTracker // nil on the fact route
	plan evalPlan

	clock   int64 // serial time: dynamic IR instructions
	savings int64 // Σ (serial − model cost) over parallel loop instances

	stack []*instance
	// live are the stack's tracked, not-yet-serialized instances — the
	// only ones Load/Store must visit. Kept in stack order.
	live []*instance
	// statSeq resolves LoopMeta→LoopStat by the meta's dense Seq ordinal
	// (one slice index instead of a map probe on every EnterLoop); stats
	// remains as the fallback for hand-built metas and for Stats().
	statSeq    []*LoopStat
	stats      map[*analysis.LoopMeta]*LoopStat
	coveredTop int64 // serial ticks inside outermost parallel instances

	anomalies LoopEventAnomalies

	freeInsts []*instance // instance pool

	// ord counts the loop events a chunk replay has applied: the ordinals
	// the run tracker stamps on writes. log is a HELIX class's savings by
	// ordinal on the fact route, and nil otherwise.
	ord int64
	log *savingsLog
}

// evalPlan is the per-configuration compiled event evaluator: which event
// payloads can possibly affect this configuration's report. It is derived
// once at engine construction from Config invariants (Validate guarantees
// DOALL ⟹ Dep==0), so the chunk-replay loop can skip dead payload work
// wholesale instead of dispatching it into code that discards it.
type evalPlan struct {
	// obsLive: IterLoop observations matter (Dep != 0). Under dep0 the
	// observation loop is dead code — no predictors exist and no register
	// LCD is synchronized — so chunk replay passes a nil obs slice.
	obsLive bool
	// initLive: EnterLoop init values train predictors (Dep 2 or 3).
	// Otherwise LoopStat.preds is nil and the init slice is never read.
	initLive bool
}

// LoopEventAnomalies counts loop hook sequences that violate the expected
// LIFO discipline (an IterLoop or ExitLoop whose loop is not the innermost
// active instance, or with no active instance at all). The engine skips
// such events — they cannot be attributed — but counts them so broken
// frontends or hook wiring surface on the Report instead of vanishing.
type LoopEventAnomalies struct {
	// IterNoActive counts IterLoop events with an empty instance stack.
	IterNoActive int64 `json:"iterNoActive"`
	// IterMismatch counts IterLoop events whose loop is not the top of
	// the instance stack.
	IterMismatch int64 `json:"iterMismatch"`
	// ExitNoActive counts ExitLoop events with an empty instance stack.
	ExitNoActive int64 `json:"exitNoActive"`
	// ExitMismatch counts ExitLoop events whose loop is not the top of
	// the instance stack.
	ExitMismatch int64 `json:"exitMismatch"`
}

// Total sums all anomaly counters.
func (a LoopEventAnomalies) Total() int64 {
	return a.IterNoActive + a.IterMismatch + a.ExitNoActive + a.ExitMismatch
}

// LoopStat aggregates one static loop's behaviour over the whole run.
type LoopStat struct {
	// Meta is the loop's compile-time record.
	Meta *analysis.LoopMeta
	// Reason is SerialNone while the loop is considered parallelizable;
	// any other value permanently serializes future instances ("mark
	// the loop as suitable for serial execution only", §III-B).
	Reason SerialReason
	// StaticallySerial marks loops rejected before execution (Table II
	// flag constraints), as opposed to dynamically discovered reasons.
	StaticallySerial bool
	// Instances counts dynamic loop instances.
	Instances int64
	// ParallelInstances counts instances that finished with a parallel
	// model cost.
	ParallelInstances int64
	// Iters counts back edges over all instances.
	Iters int64
	// ConflictIters counts iterations that manifested a conflict.
	ConflictIters int64
	// SerialTicks sums the serial time spent inside the loop.
	SerialTicks int64
	// LastDelta records the HELIX delta_largest of the most recent
	// tracked instance (diagnostics).
	LastDelta int64
	// LastSlowest records the slowest iteration of the most recent
	// tracked instance (diagnostics).
	LastSlowest int64
	// preds are the per-observed-LCD value predictors, built on the
	// loop's first tracked entry (nil before it, and under dep flags that
	// do not predict).
	preds []predict.Observer
}

// instance is one dynamic execution of a loop.
type instance struct {
	meta *analysis.LoopMeta
	stat *LoopStat
	// serialized: this instance contributes no savings.
	serialized bool
	// tracked: dependence tracking active (false when serialized).
	tracked bool
	// depth is the instance's position in the engine stack at entry: its
	// shadow-memory nesting level, unique among active instances.
	depth int
	// liveIdx is the instance's position in the engine's live list, or
	// -1 when not live.
	liveIdx int

	enterAdj        int64
	enterSerial     int64
	iterStartAdj    int64
	iterStartSerial int64
	iterStartSP     int64
	iters           int64 // completed back edges; also the 0-based index
	// of the current iteration

	slowestIter    int64
	phaseSlowest   int64
	parallelAcc    int64 // PDOALL: closed phases
	phaseFirstIter int64 // PDOALL: first iteration of the current phase
	deltaLargest   int64 // HELIX: largest per-iteration sync slope

	conflictIters     int64
	curIterConflicted bool

	// coveredChildren accumulates covered serial ticks reported by
	// child instances, consumed if this instance ends up serial.
	coveredChildren int64
}

type writeRec struct {
	iter int64 // writer iteration index
	off  int64 // adjusted offset of the write within its iteration
}

// NewEngine prepares an engine for one run of one configuration, on the
// shadow-memory tracker. The configuration must Validate.
func NewEngine(info *analysis.ModuleInfo, cfg Config) *Engine {
	return newEngine(info, cfg, newShadowTracker(info))
}

// newEngine is NewEngine on the given dependence tracker.
func newEngine(info *analysis.ModuleInfo, cfg Config, tr depTracker) *Engine {
	e := &Engine{
		info:  info,
		cfg:   cfg,
		tr:    tr,
		stats: map[*analysis.LoopMeta]*LoopStat{},
		plan: evalPlan{
			obsLive:  cfg.Dep != 0,
			initLive: cfg.Dep == 2 || cfg.Dep == 3,
		},
	}
	e.statSeq = make([]*LoopStat, len(info.Loops))
	for _, lm := range info.Loops {
		st := e.newStat(lm)
		e.stats[lm] = st
		if lm.Seq >= 0 && lm.Seq < len(e.statSeq) && e.statSeq[lm.Seq] == nil {
			e.statSeq[lm.Seq] = st
		}
	}
	return e
}

// staticReason applies the static Table II constraints of one configuration
// to one loop: the serialization verdict available before execution. Both
// engine construction (newStat) and configuration coalescing (classOf) use
// this single definition, so the behavioral signature cannot drift from the
// engine.
func staticReason(cfg Config, lm *analysis.LoopMeta) SerialReason {
	// fn flags: calls the configuration does not admit.
	switch cfg.Fn {
	case 0:
		if lm.HasCall {
			return SerialCall
		}
	case 1:
		if lm.HasNonPureCall {
			return SerialCall
		}
	case 2:
		if lm.HasUnsafeOrIOCall {
			return SerialCall
		}
	}
	// dep flags: non-computable register LCDs (and reductions under
	// reduc0) bar parallelization when dep0.
	if cfg.Dep == 0 {
		if len(lm.NonComputable) > 0 {
			return SerialRegLCD
		}
		if cfg.Reduc == 0 && len(lm.Reductions) > 0 {
			return SerialReduction
		}
	}
	return SerialNone
}

// newStat applies the static Table II constraints to one loop.
func (e *Engine) newStat(lm *analysis.LoopMeta) *LoopStat {
	st := &LoopStat{Meta: lm}
	st.Reason = staticReason(e.cfg, lm)
	st.StaticallySerial = st.Reason != SerialNone
	return st
}

// newPreds builds the predictors for a loop's observed LCDs (dep2
// realistic, dep3 perfect).
func (e *Engine) newPreds(n int) []predict.Observer {
	preds := make([]predict.Observer, n)
	for i := range preds {
		if e.cfg.Dep == 3 {
			preds[i] = &predict.Perfect{}
		} else {
			preds[i] = predict.NewHybrid()
		}
	}
	return preds
}

// statOf resolves the stat record for a meta: one slice index on the hot
// path, with the map as fallback for metas outside the module's dense Seq
// numbering (hand-built test metas).
func (e *Engine) statOf(lm *analysis.LoopMeta) *LoopStat {
	if s := lm.Seq; s >= 0 && s < len(e.statSeq) {
		if st := e.statSeq[s]; st != nil && st.Meta == lm {
			return st
		}
	}
	st := e.stats[lm]
	if st == nil {
		st = e.newStat(lm)
		e.stats[lm] = st
	}
	return st
}

// constrained reports whether observed-LCD index k restricts parallelism
// under the configuration: plain non-computable LCDs always do, reduction
// phis only under reduc0.
func (e *Engine) constrained(lm *analysis.LoopMeta, k int) bool {
	if k < lm.NumObservedNonComputable() {
		return true
	}
	return e.cfg.Reduc == 0
}

func (e *Engine) adj() int64 { return e.clock - e.savings }

// Tick implements interp.Hooks.
func (e *Engine) Tick(n int64) { e.clock += n }

// newInstance returns a zeroed instance, reusing a pooled record.
func (e *Engine) newInstance() *instance {
	if l := len(e.freeInsts); l > 0 {
		inst := e.freeInsts[l-1]
		e.freeInsts = e.freeInsts[:l-1]
		*inst = instance{}
		return inst
	}
	return &instance{}
}

// unlive removes inst from the live list, preserving order.
func (e *Engine) unlive(inst *instance) {
	i := inst.liveIdx
	if i < 0 {
		return
	}
	copy(e.live[i:], e.live[i+1:])
	e.live = e.live[:len(e.live)-1]
	for j := i; j < len(e.live); j++ {
		e.live[j].liveIdx = j
	}
	inst.liveIdx = -1
}

// EnterLoop implements interp.Hooks.
func (e *Engine) EnterLoop(lm *analysis.LoopMeta, sp int64, init []interp.Val) {
	st := e.statOf(lm)
	st.Instances++
	inst := e.newInstance()
	inst.meta, inst.stat = lm, st
	inst.liveIdx = -1
	if st.Reason != SerialNone {
		inst.serialized = true
	} else {
		inst.tracked = true
		inst.depth = len(e.stack)
		now, ser := e.adj(), e.clock
		inst.enterAdj, inst.enterSerial = now, ser
		inst.iterStartAdj, inst.iterStartSerial = now, ser
		inst.iterStartSP = sp
		if e.tr != nil {
			e.tr.enter(inst.depth)
		}
		inst.liveIdx = len(e.live)
		e.live = append(e.live, inst)
		// Train predictors on the live-in values (iteration 0 values
		// are available at entry; no prediction needed for them). A
		// loop's predictors are built on its first tracked entry, so
		// loops that are never tracked, statically serial ones
		// included, never build any.
		if st.preds == nil && e.plan.initLive && len(lm.Observed) > 0 {
			st.preds = e.newPreds(len(lm.Observed))
		}
		if st.preds != nil {
			for k, v := range init {
				st.preds[k].Observe(v.Bits())
			}
		}
	}
	e.stack = append(e.stack, inst)
}

// IterLoop implements interp.Hooks.
func (e *Engine) IterLoop(lm *analysis.LoopMeta, sp int64, obs []interp.LCDObs) {
	if len(e.stack) == 0 {
		e.anomalies.IterNoActive++
		return
	}
	inst := e.stack[len(e.stack)-1]
	if inst.meta != lm {
		e.anomalies.IterMismatch++
		return
	}
	inst.iters++
	if !inst.tracked {
		return
	}
	now := e.adj()
	iterLen := now - inst.iterStartAdj
	if iterLen > inst.slowestIter {
		inst.slowestIter = iterLen
	}
	if iterLen > inst.phaseSlowest {
		inst.phaseSlowest = iterLen
	}

	// Register LCD handling for the next iteration's values.
	nextConflicted := false
	for k, o := range obs {
		if !e.constrained(lm, k) {
			continue
		}
		switch e.cfg.Dep {
		case 2, 3:
			hit := inst.stat.preds[k].Observe(o.Val.Bits())
			if hit {
				continue
			}
			// Mispredicted: the consumer (next iteration, offset 0)
			// must wait for the producer in the just-finished
			// iteration.
			switch e.cfg.Model {
			case PDOALL:
				nextConflicted = true
			case HELIX:
				e.regSlope(inst, o, iterLen)
			}
		case 1: // HELIX-only: lowered to memory, synchronized always.
			e.regSlope(inst, o, iterLen)
		}
	}

	if nextConflicted {
		// The upcoming iteration starts conflicted: close the phase
		// ending with the just-finished iteration. (curIterConflicted
		// only deduplicates conflicts within one iteration; a new
		// iteration always opens fresh.)
		inst.parallelAcc += inst.phaseSlowest
		inst.phaseSlowest = 0
		inst.phaseFirstIter = inst.iters
		inst.conflictIters++
	}
	inst.curIterConflicted = nextConflicted

	inst.iterStartAdj = now
	inst.iterStartSerial = e.clock
	inst.iterStartSP = sp
}

// regSlope records the HELIX synchronization slope for a register LCD whose
// producer executed at serial tick DefTick within the just-finished
// iteration.
func (e *Engine) regSlope(inst *instance, o interp.LCDObs, iterLen int64) {
	var off int64
	if o.DefTick >= 0 {
		off = o.DefTick - inst.iterStartSerial
	}
	if off < 0 {
		off = 0
	}
	// Serial offsets can exceed the adjusted iteration length when nested
	// parallel loops compressed the iteration; clamp conservatively.
	if off > iterLen {
		off = iterLen
	}
	if off > inst.deltaLargest {
		inst.deltaLargest = off
	}
}

// ExitLoop implements interp.Hooks.
func (e *Engine) ExitLoop(lm *analysis.LoopMeta) {
	if len(e.stack) == 0 {
		e.anomalies.ExitNoActive++
		return
	}
	inst := e.stack[len(e.stack)-1]
	if inst.meta != lm {
		e.anomalies.ExitMismatch++
		return
	}
	e.stack = e.stack[:len(e.stack)-1]
	st := inst.stat

	var covered int64
	if inst.tracked {
		now, ser := e.adj(), e.clock
		// The trailing header-only segment counts as the final
		// (partial) iteration of the last phase.
		tail := now - inst.iterStartAdj
		if tail > inst.slowestIter {
			inst.slowestIter = tail
		}
		if tail > inst.phaseSlowest {
			inst.phaseSlowest = tail
		}
		serialAdj := now - inst.enterAdj

		var parallel int64
		switch e.cfg.Model {
		case DOALL:
			parallel = inst.slowestIter
		case PDOALL:
			if inst.iters > 0 && float64(inst.conflictIters) > ConflictIterLimit*float64(inst.iters) {
				inst.serialized = true
				st.Reason = SerialConflict
				parallel = serialAdj
			} else {
				parallel = inst.parallelAcc + inst.phaseSlowest
			}
		case HELIX:
			parallel = inst.slowestIter + inst.deltaLargest*inst.iters
			st.LastDelta = inst.deltaLargest
			st.LastSlowest = inst.slowestIter
			if parallel >= serialAdj {
				inst.serialized = true
				st.Reason = SerialNoGain
				parallel = serialAdj
			}
		}
		if parallel > serialAdj {
			parallel = serialAdj
		}
		if parallel < 1 && serialAdj > 0 {
			parallel = 1
		}
		if !inst.serialized {
			e.savings += serialAdj - parallel
			covered = ser - inst.enterSerial
			st.ParallelInstances++
		} else {
			covered = inst.coveredChildren
		}
		st.SerialTicks += ser - inst.enterSerial
		e.unlive(inst)
		if e.log != nil {
			e.log.exit(e.ord, e.savings, len(e.live) == 0)
		}
	} else {
		// Untracked instances were measured by an enclosing tracked
		// instance (or by nobody); they only forward covered ticks.
		covered = inst.coveredChildren
	}
	st.Iters += inst.iters
	st.ConflictIters += inst.conflictIters

	if len(e.stack) > 0 {
		e.stack[len(e.stack)-1].coveredChildren += covered
	} else {
		e.coveredTop += covered
	}
	e.freeInsts = append(e.freeInsts, inst)
}

// Load implements interp.Hooks: RAW detection against earlier-iteration
// writes, per live (tracked, unserialized) loop instance. The address is
// classified once; the tracker call takes the pre-computed region.
func (e *Engine) Load(addr int64) {
	if len(e.live) == 0 {
		return
	}
	r, ri := region(addr)
	onStack := r == regStack
	// Innermost-first, matching the historical stack walk; DOALL
	// serialization may unlive the instance under the cursor, which is
	// safe on a descending index.
	for idx := len(e.live) - 1; idx >= 0; idx-- {
		inst := e.live[idx]
		if onStack && addr < inst.iterStartSP {
			// Cactus-stack exemption (§II-E): frames pushed after
			// this iteration began are iteration-private.
			continue
		}
		rec, ok := e.tr.load(inst.depth, r, ri, addr)
		if !ok {
			continue
		}
		e.loadHit(inst, rec, e.adj()-inst.iterStartAdj)
	}
}

// loadHit applies the per-model RAW policy to one recorded write found for
// a load: same-iteration and committed-phase reads are not violations;
// everything else is a manifesting conflict. c is the load's adjusted
// offset within the instance's current iteration (HELIX slope input).
func (e *Engine) loadHit(inst *instance, rec writeRec, c int64) {
	if rec.iter >= inst.iters {
		return // no cross-iteration RAW for this loop
	}
	if e.cfg.Model == PDOALL && rec.iter < inst.phaseFirstIter {
		// The writer belongs to an already-committed phase: its
		// value is architecturally visible, so the read is not a
		// violation (§II-C: execution restarts after the
		// conflict is resolved).
		return
	}
	e.memConflict(inst, rec, c)
}

// memConflict applies one manifesting memory RAW LCD to an instance. c is
// the consuming load's adjusted offset within the instance's current
// iteration (only HELIX reads it).
func (e *Engine) memConflict(inst *instance, rec writeRec, c int64) {
	switch e.cfg.Model {
	case DOALL:
		// First conflict marks the loop sequential for good (§III-B).
		inst.serialized = true
		inst.stat.Reason = SerialConflict
		if !inst.curIterConflicted {
			inst.curIterConflicted = true
			inst.conflictIters++
		}
		e.unlive(inst)
	case PDOALL:
		if inst.curIterConflicted {
			return
		}
		inst.curIterConflicted = true
		inst.conflictIters++
		// Delay this iteration to the end of the slowest iteration
		// of the conflict-free phase that just ended; the new phase
		// begins with this (restarted) iteration.
		inst.parallelAcc += inst.phaseSlowest
		inst.phaseSlowest = 0
		inst.phaseFirstIter = inst.iters
	case HELIX:
		// Paper §III-B: assuming all iterations start at the same
		// time-stamp, record the largest producer-consumer offset
		// delta of any manifesting LCD. Note the delta is NOT
		// amortized over the iteration distance — HELIX synchronizes
		// every neighboring pair of iterations, which is exactly why
		// rare-conflict loops can prefer PDOALL (paper §IV).
		gap := inst.iters - rec.iter
		if gap <= 0 {
			return
		}
		slope := rec.off - c
		if e.cfg.AmortizeHelixDelta {
			slope = slope / gap
		}
		if slope < 0 {
			slope = 0
		}
		if slope > inst.deltaLargest {
			inst.deltaLargest = slope
		}
		if !inst.curIterConflicted {
			inst.curIterConflicted = true
			inst.conflictIters++
		}
	}
}

// Store implements interp.Hooks: record the write for RAW detection. The
// address is classified once; the tracker call takes the region.
func (e *Engine) Store(addr int64) {
	if len(e.live) == 0 {
		return
	}
	r, ri := region(addr)
	onStack := r == regStack
	now := e.adj()
	for idx := len(e.live) - 1; idx >= 0; idx-- {
		inst := e.live[idx]
		if onStack && addr < inst.iterStartSP {
			continue
		}
		e.tr.store(inst.depth, r, ri, addr, writeRec{iter: inst.iters, off: now - inst.iterStartAdj})
	}
}

// applyFacts applies one memory span's facts, the run tracker's
// cross-iteration load hits, at the levels where this class's instance is
// live, in the tracker's order: level by level, records in order within a
// level. That is the order the per-event route meets them in for any one
// instance, and instances share no policy state. A DOALL conflict unlives
// its instance, so the rest of that level's facts are skipped, as
// per-event dispatch would stop probing for it.
//
// Only HELIX reads the write's and the load's offsets. Its write offset on
// the adjusted clock is the raw offset less the savings this class made
// between the iteration's start and the write; savings cannot change
// inside the span, so the load's offset is the span's start offset plus
// the record's tick. Savings never fall, so the adjusted offset is at
// most the raw one: a fact whose raw slope is within delta_largest cannot
// raise it, so it skips the savings lookup and still counts its iteration
// as conflicting. That holds for the AmortizeHelixDelta ablation too,
// whose slope divides by a positive iteration gap and is clamped at 0.
func (e *Engine) applyFacts(evs []memEv, facts []fact) {
	adj0 := e.adj()
	for i := range facts {
		f := &facts[i]
		inst := e.stack[f.level]
		if inst.liveIdx < 0 {
			continue
		}
		rec, c := writeRec{iter: f.rec.iter}, int64(0)
		if e.log != nil {
			rec.off = f.rec.raw
			c = adj0 - inst.iterStartAdj + evs[f.mem].tick
			if rec.off-c > inst.deltaLargest {
				rec.off -= e.log.between(f.rec.start, f.rec.ord)
			}
		}
		e.loadHit(inst, rec, c)
	}
}

// savingsLog maps loop-event ordinals to a class's cumulative savings:
// one entry per tracked exit that changed them, appended in event order.
// Ordinals, not clock values, key it: an exit and a write can share a
// clock value, but the write's ordinal still tells whether it came after
// the exit.
// A fact's writer iteration began while the fact's instance was live, and
// the instance has stayed live since, so the log only reaches back to the
// class's last moment with no live instance, where it starts over. Entries
// sit in fixed blocks, drawn from savingsBlocks and kept across restarts,
// so the log never regrows.
type savingsLog struct {
	base   int64 // savings when the log last started over
	blocks []*[savingsBlock]savingsEnt
	n      int
	// from and fromIdx memoize between's search for its from ordinal,
	// which consecutive facts mostly share (about two thirds of them on
	// the paper grid). Later entries are past from too, so the index
	// holds until the log starts over; ordinals start at 1, so from 0
	// matches no query.
	from    int64
	fromIdx int
}

// savingsBlock is the entry count of one savingsLog block (4 KiB).
const savingsBlock = 256

// savingsBlocks recycles savingsLog blocks across runs.
var savingsBlocks = sync.Pool{New: func() any { return new([savingsBlock]savingsEnt) }}

// savingsEnt: savings after the exit with loop-event ordinal ord.
type savingsEnt struct{ ord, savings int64 }

func (l *savingsLog) ent(i int) *savingsEnt { return &l.blocks[i/savingsBlock][i%savingsBlock] }

// exit records a tracked instance's exit, the loop event with ordinal
// ord, that left the class with savings and, when idle, no live instance.
func (l *savingsLog) exit(ord, savings int64, idle bool) {
	if idle {
		l.base, l.n, l.from = savings, 0, 0
		return
	}
	last := l.base
	if l.n > 0 {
		last = l.ent(l.n - 1).savings
	}
	if savings == last {
		return
	}
	if l.n == len(l.blocks)*savingsBlock {
		l.blocks = append(l.blocks, savingsBlocks.Get().(*[savingsBlock]savingsEnt))
	}
	*l.ent(l.n) = savingsEnt{ord, savings}
	l.n++
}

// after returns the index of the first entry past loop event ord among
// the entries [lo, hi), given that the entry at hi, if any, is past it.
func (l *savingsLog) after(lo, hi int, ord int64) int {
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); l.ent(m).ord <= ord {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// release returns the log's blocks to savingsBlocks. Call it once, after
// the engine's last event.
func (l *savingsLog) release() {
	for _, b := range l.blocks {
		savingsBlocks.Put(b)
	}
	l.blocks, l.n = nil, 0
}

// between returns the savings made after loop event from and up to loop
// event to.
func (l *savingsLog) between(from, to int64) int64 {
	if from != l.from {
		l.from, l.fromIdx = from, l.after(0, l.n, from)
	}
	i := l.fromIdx
	// A fact's write lies in the iteration that began at from, so few
	// entries, if any, lie between the two: gallop forward from i.
	lo, hi := i, i
	for step := 1; hi < l.n && l.ent(hi).ord <= to; step *= 2 {
		lo, hi = hi+1, min(hi+step, l.n)
	}
	return l.upTo(l.after(lo, hi, to)) - l.upTo(i)
}

// upTo returns the savings after the log's first n entries.
func (l *savingsLog) upTo(n int) int64 {
	if n == 0 {
		return l.base
	}
	return l.ent(n - 1).savings
}

// SerialCost returns the total dynamic IR instruction count (serial time).
func (e *Engine) SerialCost() int64 { return e.clock }

// ParallelCost returns the adjusted (limit parallel) time.
func (e *Engine) ParallelCost() int64 { return e.adj() }

// CoveredTicks returns the serial ticks spent inside parallel loops.
func (e *Engine) CoveredTicks() int64 { return e.coveredTop }

// Anomalies returns the loop-event anomaly counters.
func (e *Engine) Anomalies() LoopEventAnomalies { return e.anomalies }

// Stats exposes the per-loop statistics (keyed by loop metadata).
func (e *Engine) Stats() map[*analysis.LoopMeta]*LoopStat { return e.stats }
