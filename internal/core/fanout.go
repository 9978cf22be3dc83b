package core

// Run-once / evaluate-many: one interpretation of a program feeds any
// number of per-configuration engines. The instrumentation event stream is
// configuration-independent (paper §III-A separates instrumentation from
// the run-time models of §III-B), so sweeping the Table II grid does not
// need to re-interpret the benchmark once per configuration — MultiRun
// amortizes the expensive producer (the interpreter) across N cheap
// consumers (the engines).
//
// There is one evaluation body, evaluate, behind Run, MultiRun and
// ReplayTraceMulti. It coalesces the configurations into engine classes
// (coalesce.go), picks the consumer of the event stream, tees the trace
// writer off it, runs the producer (the VM, or a trace decoder) and
// derives the reports. The consumer is chosen by the class count:
//
//   - One class, which every Run is: the producer calls that engine's own
//     interp.Hooks, event by event.
//   - More classes: the producer (chunkTee) builds each chunk's SEALED
//     batched-replay plan at write time. Every load/store address is
//     classified into its shadow region once, and the records are
//     partitioned into loop-event singletons and memory spans: maximal
//     stretches of loads, stores, and interleaved ticks, with each
//     record's intra-span clock offset precomputed and ticks folded into
//     the span. The plan is shared read-only by every engine class, so
//     the classes split the classification cost; each feeds whole spans
//     to the tracker's batched memRun method (Engine.replayChunkBatched).
//
// The chunks replay on w workers, w = min(Parallelism resolved, coalesced
// classes); w is 1 below FanoutThreshold configurations and for trace
// replay. Parallelism 0 resolves at run start to GOMAXPROCS shared among
// the evaluations then in flight: a lone run gets every CPU, and a sweep
// that already runs programs concurrently does not pay for parallelism a
// second time inside each run.
//
//   - w == 1: each full chunk replays inline, on the producing goroutine,
//     into every engine; the one chunk is reused for the whole run.
//   - w > 1: each full chunk is reference-counted and published to one
//     buffered channel per worker of the class-affinity pool. Each worker
//     owns a fixed round-robin subset of the coalesced engine classes (a
//     class — and therefore its core-local shadow tracker — never
//     migrates, so no locks guard the SoA level slices) and replays every
//     chunk into them in group order; the last worker to finish returns
//     the chunk to a free list of at most fanoutChunks chunks.
//
// Copying the interpreter's scratch payloads (EnterLoop init values,
// IterLoop observations) into the chunk's flat arrays is the one copy of
// the fan-out (see interp.Hooks). The trace writer needs the per-event
// stream, so it tees off the producer directly and records the same bytes
// on every route and at every width.
//
// The contract, enforced differentially against the golden suite: the
// reports of MultiRun(info, cfgs, opts) are bit-identical to running
// Run(info, cfg, opts) once per configuration.

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/interp"
)

// FanoutThreshold is the configuration count below which MultiRun replays
// on the interpreting goroutine regardless of Parallelism: for so few
// engines the per-chunk handoff costs more than the engine work it moves.
const FanoutThreshold = 4

// ResolveParallelism maps RunOptions.Parallelism to the widest worker-pool
// width MultiRun asks for: 0 (auto) means one worker per available CPU,
// the width a lone run gets. While other runs are in flight, an auto
// run's width is narrower (see fanoutWorkers).
func ResolveParallelism(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// runsInFlight counts the evaluations executing in this process: Run,
// MultiRun and trace replay calls alike. It is coordination state, like
// shadowGen and the page pool, not a setting: the callers that nest
// parallelism (bench.Harness workers, serve sweeps and analyses, cluster
// workers, concurrent library users) share nothing but the process.
var runsInFlight atomic.Int32

// fanoutWorkers is the worker count of one evaluation, given the
// evaluations in flight, itself included. Parallelism 0 shares GOMAXPROCS
// among them: max(1, GOMAXPROCS ÷ inFlight). The width is then clamped to
// the number of coalesced engine classes, and is 1 below FanoutThreshold
// configurations. Explicit widths ignore inFlight.
func fanoutWorkers(nCfgs, nClasses, parallelism, inFlight int) int {
	if nCfgs < FanoutThreshold {
		return 1
	}
	w := ResolveParallelism(parallelism)
	if parallelism <= 0 {
		w /= max(1, inFlight)
	}
	return max(1, min(w, nClasses))
}

// evKind tags one loop-event record or one replay-plan span.
type evKind uint8

const (
	evEnter evKind = iota + 1
	evIter
	evExit
	// evMemSpan tags a runSpan covering a memory run: a maximal stretch
	// of load, store, and tick events between loop events. It is a span
	// kind only, never a record kind.
	evMemSpan
)

// evRec is one loop event in flattened form. Variable-length payloads
// (EnterLoop init values, IterLoop observations) live in the owning
// chunk's flat arrays, referenced by [off, off+n).
type evRec struct {
	kind evKind
	lm   *analysis.LoopMeta
	a    int64 // stack pointer
	off  int32 // payload start in the chunk's vals/obs
	n    int32 // payload length
}

// chunkRecs is the record capacity of one event chunk: loop and memory
// records together; ticks take no record. At 32 bytes per record a chunk's
// records are ~32 KiB of hot, reused memory — large enough that channel
// synchronization amortizes to a few nanoseconds per event, small enough
// that the chunks chunkPool keeps between runs hold little memory.
const chunkRecs = 1024

// evChunk is one sealed batch of events: the replay plan plus the copied
// payloads, shared by every engine class of a multi-class run. Consumers
// read it strictly read-only; refs counts the pool workers that have not
// released it.
type evChunk struct {
	// The chunk's partition into spans; the loop-event records the
	// singleton spans address; and the dense memory-record array the
	// memory spans index (kind, region classification, and intra-span
	// tick offsets, in record order), which every class probes itself.
	spans []runSpan
	recs  []evRec
	mem   []memEv
	vals  []interp.Val
	obs   []interp.LCDObs
	refs  atomic.Int32
}

// newChunk returns an empty chunk. Only the memory-record array, which
// holds most of nearly every chunk, is sized up front; the rest grow to
// what the program uses.
func newChunk() *evChunk {
	return &evChunk{mem: make([]memEv, 0, chunkRecs)}
}

// chunkPool recycles the producer's chunk, grown arrays included, across
// runs: a steady stream of multi-class runs and replays replaying inline
// allocates no chunk memory. Each run returns exactly one chunk,
// once no engine or worker can read it any more; the other chunks of a
// pooled run are left to the GC, so that between runs chunkPool holds one
// chunk per concurrent run rather than fanoutChunks.
var chunkPool = sync.Pool{New: func() any { return newChunk() }}

// getChunk returns an empty chunk from chunkPool.
func getChunk() *evChunk {
	c := chunkPool.Get().(*evChunk)
	c.reset()
	return c
}

// runSpan is one element of a sealed chunk's replay plan. Loop events
// (enter/iter/exit) are singleton spans addressing recs[rec]; everything
// between them — loads, stores, and the ticks interleaved with them — is
// one memory span addressing the chunk's memory records [mstart, mend),
// with sum the total clock advance inside the span.
type runSpan struct {
	kind         evKind
	rec          int32 // record index, for loop-event spans
	mstart, mend int32 // mem range, for memory spans
	sum          int64 // Σ tick payloads, for memory spans
}

// reset readies a recycled chunk for refilling.
func (c *evChunk) reset() {
	c.spans = c.spans[:0]
	c.recs = c.recs[:0]
	c.mem = c.mem[:0]
	c.vals = c.vals[:0]
	c.obs = c.obs[:0]
}

// replayChunkBatched applies one sealed chunk to an engine through the
// batched tracker path:
//
//   - each memory span makes ONE tracker dispatch per live loop instance
//     (Engine.memSpan → depTracker.memRun) instead of one per event, with
//     the precomputed intra-span tick offsets keeping every store's clock
//     stamp and every conflict offset exact;
//   - the span's tick sum collapses to a single clock add (Tick only
//     accumulates, so the precomputed sum is exact — and the coalescing is
//     strictly consumer-side, leaving recorded trace bytes untouched);
//   - payloads dead under this configuration's evalPlan (IterLoop
//     observations under dep0, EnterLoop init values without predictors)
//     are skipped wholesale instead of being sliced and dispatched into
//     code that discards them.
//
// The result is bit-identical to feeding the same events to Engine's
// per-event hooks, which is what a one-class run does; the oracle suites
// pin that equivalence.
func (e *Engine) replayChunkBatched(c *evChunk) {
	for si := range c.spans {
		s := &c.spans[si]
		switch s.kind {
		case evMemSpan:
			if s.mend > s.mstart {
				e.memSpan(c.mem[s.mstart:s.mend])
			}
			e.clock += s.sum
		case evEnter:
			r := &c.recs[s.rec]
			var init []interp.Val
			if e.plan.initLive {
				init = c.vals[r.off : r.off+r.n]
			}
			e.EnterLoop(r.lm, r.a, init)
		case evIter:
			r := &c.recs[s.rec]
			var obs []interp.LCDObs
			if e.plan.obsLive {
				obs = c.obs[r.off : r.off+r.n]
			}
			e.IterLoop(r.lm, r.a, obs)
		case evExit:
			e.ExitLoop(c.recs[s.rec].lm)
		}
	}
}

// replayAll returns the replayer of one group of engines: every chunk is
// applied to each engine in group order.
func replayAll(engines []*Engine) func(*evChunk) {
	return func(c *evChunk) {
		for _, e := range engines {
			e.replayChunkBatched(c)
		}
	}
}

// multiHooks forwards every event to each consumer on the calling
// goroutine, scratch slices included — safe because consumers are
// synchronous and non-retaining. It tees the trace writer off the
// producer.
type multiHooks struct{ hs []interp.Hooks }

func (m *multiHooks) Tick(n int64) {
	for _, h := range m.hs {
		h.Tick(n)
	}
}

func (m *multiHooks) EnterLoop(lm *analysis.LoopMeta, sp int64, init []interp.Val) {
	for _, h := range m.hs {
		h.EnterLoop(lm, sp, init)
	}
}

func (m *multiHooks) IterLoop(lm *analysis.LoopMeta, sp int64, obs []interp.LCDObs) {
	for _, h := range m.hs {
		h.IterLoop(lm, sp, obs)
	}
}

func (m *multiHooks) ExitLoop(lm *analysis.LoopMeta) {
	for _, h := range m.hs {
		h.ExitLoop(lm)
	}
}

func (m *multiHooks) Load(addr int64) {
	for _, h := range m.hs {
		h.Load(addr)
	}
}

func (m *multiHooks) Store(addr int64) {
	for _, h := range m.hs {
		h.Store(addr)
	}
}

// chunkTee is the fan-out producer: it builds the SEALED replay plan at
// write time — ticks fold straight into the open memory span's sum, loads
// and stores append classified memEv records, and only loop events
// materialize as evRecs — and hands each full chunk to emit, which
// returns the chunk to fill next (the same one after an inline replay, a
// free one after a pool publication).
type chunkTee struct {
	cur    *evChunk
	sum    int64 // Σ tick payloads of the open memory span
	mstart int32 // start of the open memory span in cur.mem
	emit   func(*evChunk) *evChunk
}

func newChunkTee(emit func(*evChunk) *evChunk) *chunkTee {
	return &chunkTee{cur: getChunk(), emit: emit}
}

// inlineTee is the w == 1 producer: each full chunk replays into every
// engine on the producing goroutine and is then reused.
func inlineTee(engines []*Engine) *chunkTee {
	replay := replayAll(engines)
	return newChunkTee(func(c *evChunk) *evChunk {
		replay(c)
		return c
	})
}

// closeMemSpan seals the open memory span into the plan if it observed
// any tick or memory record. Sealing only records the span's bounds and
// tick sum: the records are already classified.
func (t *chunkTee) closeMemSpan() {
	c := t.cur
	if t.sum != 0 || int32(len(c.mem)) > t.mstart {
		c.spans = append(c.spans, runSpan{
			kind: evMemSpan, mstart: t.mstart, mend: int32(len(c.mem)), sum: t.sum,
		})
		t.sum = 0
		t.mstart = int32(len(c.mem))
	}
}

// loopRec appends one loop-event record plus its singleton span, flushing
// when the chunk fills.
func (t *chunkTee) loopRec(r evRec) {
	t.closeMemSpan()
	c := t.cur
	c.spans = append(c.spans, runSpan{kind: r.kind, rec: int32(len(c.recs))})
	c.recs = append(c.recs, r)
	if len(c.recs)+len(c.mem) >= chunkRecs {
		t.flush()
	}
}

// memRec appends one classified memory record to the open span.
func (t *chunkTee) memRec(addr int64, kind uint8) {
	r, idx := region(addr)
	c := t.cur
	c.mem = append(c.mem, memEv{idx: idx, addr: addr, tick: t.sum, kind: kind, reg: int8(r)})
	if len(c.recs)+len(c.mem) >= chunkRecs {
		t.flush()
	}
}

// Tick implements interp.Hooks: ticks only accumulate, so they fold into
// the open span's sum without materializing a record.
func (t *chunkTee) Tick(n int64) { t.sum += n }

// Load implements interp.Hooks.
func (t *chunkTee) Load(addr int64) { t.memRec(addr, memLoad) }

// Store implements interp.Hooks.
func (t *chunkTee) Store(addr int64) { t.memRec(addr, memStore) }

// EnterLoop implements interp.Hooks: the init scratch slice is copied into
// the chunk's flat payload array.
func (t *chunkTee) EnterLoop(lm *analysis.LoopMeta, sp int64, init []interp.Val) {
	c := t.cur
	off := int32(len(c.vals))
	c.vals = append(c.vals, init...)
	t.loopRec(evRec{kind: evEnter, lm: lm, a: sp, off: off, n: int32(len(init))})
}

// IterLoop implements interp.Hooks: the obs scratch slice is copied into
// the chunk's flat payload array.
func (t *chunkTee) IterLoop(lm *analysis.LoopMeta, sp int64, obs []interp.LCDObs) {
	c := t.cur
	off := int32(len(c.obs))
	c.obs = append(c.obs, obs...)
	t.loopRec(evRec{kind: evIter, lm: lm, a: sp, off: off, n: int32(len(obs))})
}

// ExitLoop implements interp.Hooks.
func (t *chunkTee) ExitLoop(lm *analysis.LoopMeta) { t.loopRec(evRec{kind: evExit, lm: lm}) }

// flush hands the buffered plan to emit and readies the next chunk. A
// memory span interrupted by a flush simply splits in two, which is
// exact: the engine adds the first part's tick sum to its clock before
// the second part computes offsets against the updated clock. Call once
// more after the producer finishes to drain the partial tail.
func (t *chunkTee) flush() {
	t.closeMemSpan()
	if len(t.cur.spans) == 0 {
		return
	}
	t.cur = t.emit(t.cur)
	t.cur.reset()
	t.mstart = 0
}

// finish drains the partial tail chunk and returns the producer's chunk
// to chunkPool. Call it once, after the producer's last event.
func (t *chunkTee) finish() {
	t.flush()
	chunkPool.Put(t.cur)
	t.cur = nil
}

// fanoutChunks bounds the chunks one pooled MultiRun ever holds: the
// producer fills one while the workers replay the others, and blocks for
// a released chunk once all of them are in flight. The bound keeps a
// run's chunk memory to a few chunks however far the interpreter could
// run ahead of the slowest worker.
const fanoutChunks = 4

// workerPool is the w > 1 consumer side: one goroutine per replay group,
// each fed sealed chunks through its own FIFO channel. A group's engines
// are only ever touched from its worker, so they need no locks, and each
// channel delivers chunks in publication order however the workers
// interleave — which is what keeps reports bit-identical at every width.
type workerPool struct {
	outs     []chan *evChunk
	free     chan *evChunk // released chunks; never more than fanoutChunks
	made     int           // chunks allocated so far, the producer's first included
	wg       sync.WaitGroup
	panicked atomic.Pointer[PanicError]
}

// startWorkers launches one worker per replayer. Channels hold every
// chunk the pool can allocate, so the producer only ever waits for a
// free chunk, never on a send.
func startWorkers(replayers []func(*evChunk)) *workerPool {
	p := &workerPool{
		outs: make([]chan *evChunk, len(replayers)),
		free: make(chan *evChunk, fanoutChunks),
		made: 1,
	}
	for i, replay := range replayers {
		p.outs[i] = make(chan *evChunk, fanoutChunks)
		p.wg.Add(1)
		go p.work(p.outs[i], replay)
	}
	return p
}

// work replays every chunk of ch, then releases it. After a panic the
// worker keeps draining its channel without replaying, so the producer
// never blocks on it, sibling workers keep running, and reference counts
// stay balanced; close reports the first panic.
func (p *workerPool) work(ch chan *evChunk, replay func(*evChunk)) {
	defer p.wg.Done()
	dead := false
	for c := range ch {
		if !dead {
			dead = !p.apply(replay, c)
		}
		if c.refs.Add(-1) == 0 {
			p.free <- c
		}
	}
}

// apply replays one chunk, recovering a panic into the pool's first
// *PanicError; it reports whether the replay completed.
func (p *workerPool) apply(replay func(*evChunk), c *evChunk) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			p.panicked.CompareAndSwap(nil, &PanicError{Val: r, Stack: string(debug.Stack())})
		}
	}()
	replay(c)
	return true
}

// publish hands one sealed chunk to every worker and returns a chunk for
// the producer to fill next: a released one when there is one, a new one
// while fewer than fanoutChunks exist, and otherwise the next to be
// released.
func (p *workerPool) publish(c *evChunk) *evChunk {
	c.refs.Store(int32(len(p.outs)))
	for _, ch := range p.outs {
		ch <- c
	}
	if p.made < fanoutChunks {
		select {
		case next := <-p.free:
			return next
		default:
			p.made++
			return newChunk()
		}
	}
	return <-p.free
}

// close ends the run: it closes every channel, waits for the workers to
// drain them, and returns the first worker panic, if any.
func (p *workerPool) close() *PanicError {
	for _, ch := range p.outs {
		close(ch)
	}
	p.wg.Wait()
	return p.panicked.Load()
}

// affinityGroups partitions items round-robin across at most workers
// groups: item i is pinned to group i%workers for the whole run. The items
// are the coalesced engine classes, so the assignment is the pool's class
// affinity — a class never migrates between workers.
func affinityGroups[T any](items []T, workers int) [][]T {
	workers = max(1, min(workers, len(items)))
	groups := make([][]T, workers)
	for i, it := range items {
		groups[i%workers] = append(groups[i%workers], it)
	}
	return groups
}

// MultiRun executes the analyzed module's main function ONCE and evaluates
// every configuration against the shared event stream, returning one
// report per configuration, in order. The reports are bit-identical to
// running Run once per configuration, and a recorded opts.Trace is
// byte-identical to Run's, at every opts.Parallelism; an execution failure
// (budget trip, guest fault, cancellation) is returned once and applies to
// every configuration, exactly as N identical executions would each have
// failed.
func MultiRun(info *analysis.ModuleInfo, cfgs []Config, opts RunOptions) ([]*Report, error) {
	return evaluate(info, info.Mod.Name, cfgs, opts, func(h interp.Hooks) error {
		return interpret(info, opts, h)
	})
}

// evaluate is the one evaluation body of Run, MultiRun and
// ReplayTraceMulti, and the one place a run's consumer is chosen (see the
// file comment). Every configuration is validated before produce, which
// feeds the whole event stream into the hooks it is given, runs; the
// reports are named name. A panic in the producer or an inline consumer is
// recovered here, and a pool worker's panic is returned by the pool;
// either way the run's shadow pages are left to the GC.
func evaluate(info *analysis.ModuleInfo, name string, cfgs []Config, opts RunOptions,
	produce func(interp.Hooks) error) (reps []*Report, err error) {
	inFlight := int(runsInFlight.Add(1))
	defer runsInFlight.Add(-1)
	var pool *workerPool // set while workers run
	defer func() {
		if r := recover(); r != nil {
			if pool != nil {
				pool.close() // a panicking producer still stops its workers
			}
			reps, err = nil, fmt.Errorf("core: %s: %w", name,
				&PanicError{Val: r, Stack: string(debug.Stack())})
		}
	}()
	set, err := prepareEngines(info, cfgs, opts.oracle)
	if err != nil {
		return nil, err
	}
	var hooks interp.Hooks
	var t *chunkTee // nil on the engine-hooks route
	switch w := fanoutWorkers(len(cfgs), len(set.engines), opts.Parallelism, inFlight); {
	case len(set.engines) == 1:
		hooks = set.engines[0]
	case w == 1:
		t = inlineTee(set.engines)
		hooks = t
	default:
		groups := affinityGroups(set.engines, w)
		replayers := make([]func(*evChunk), len(groups))
		for i, g := range groups {
			replayers[i] = replayAll(g)
		}
		pool = startWorkers(replayers)
		t = newChunkTee(pool.publish)
		hooks = t
	}
	tw := traceSink(info, opts)
	if tw != nil {
		hooks = &multiHooks{hs: []interp.Hooks{hooks, tw}}
	}

	err = produce(hooks)
	if t != nil {
		t.finish()
	}
	if pool != nil {
		p := pool.close()
		pool = nil
		if p != nil {
			return nil, fmt.Errorf("core: %s: %w", name, p)
		}
	}
	if err == nil && tw != nil {
		if cerr := tw.Close(); cerr != nil {
			err = fmt.Errorf("core: %s: writing trace: %w", name, cerr)
		}
	}
	if err == nil {
		reps = set.reports(cfgs, name)
	}
	set.release()
	return reps, err
}

// interpret runs main on the bytecode VM with the given hooks and the
// RunOptions budgets.
func interpret(info *analysis.ModuleInfo, opts RunOptions, hooks interp.Hooks) error {
	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = time.Now().Add(opts.Timeout)
	}
	cfg := interp.Config{
		Out:          opts.Out,
		MaxSteps:     opts.MaxSteps,
		MaxHeapCells: opts.MaxHeapCells,
		Ctx:          opts.Ctx,
		Deadline:     deadline,
		Hooks:        hooks,
	}
	if _, err := opts.oracle.execute(info, cfg, opts.EntryArgs); err != nil {
		return fmt.Errorf("core: %s: %w", info.Mod.Name, err)
	}
	return nil
}

// traceSink wraps the optional opts.Trace writer, returning nil when
// tracing is off.
func traceSink(info *analysis.ModuleInfo, opts RunOptions) *TraceWriter {
	if opts.Trace == nil {
		return nil
	}
	return NewTraceWriter(opts.Trace, info)
}
