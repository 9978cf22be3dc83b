package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/interp"
	"loopapalooza/internal/ir"
)

// fanoutSamples covers the dependence shapes the engines care about:
// independent iterations, memory recurrences, reductions, predictable and
// unpredictable register LCDs, calls, and stack reuse.
var fanoutSamples = map[string]string{
	"doall":         doallSrc,
	"recurrence":    recurrenceSrc,
	"infrequent":    infrequentSrc,
	"reduction":     reductionSrc,
	"predictable":   predictableSrc,
	"unpredictable": unpredictableSrc,
	"dep1":          dep1Src,
	"call":          callSrc,
	"stack":         stackSrc,
}

// multiWidths pins MultiRun's worker count: 1 (every engine replayed
// inline on the interpreting goroutine), 2 (classes split across two
// workers), NumCPU (a lone run's auto width), and 64, which exceeds the
// class count and so gives one worker per class.
var multiWidths = map[string]int{
	"p1":   1,
	"p2":   2,
	"pcpu": runtime.NumCPU(),
	"p64":  64,
}

// TestMultiRunBitIdentical is the in-package differential oracle: for every
// sample program, one MultiRun over the full paper grid must produce
// reports bit-identical to running each configuration separately.
func TestMultiRunBitIdentical(t *testing.T) {
	cfgs := PaperConfigs()
	for name, src := range fanoutSamples {
		info, err := AnalyzeSource(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := make([]*Report, len(cfgs))
		for i, cfg := range cfgs {
			if want[i], err = Run(info, cfg, RunOptions{}); err != nil {
				t.Fatalf("%s/%s: %v", name, cfg, err)
			}
		}
		for width, p := range multiWidths {
			got, err := MultiRun(info, cfgs, RunOptions{Parallelism: p})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, width, err)
			}
			if len(got) != len(cfgs) {
				t.Fatalf("%s/%s: %d reports, want %d", name, width, len(got), len(cfgs))
			}
			for i := range cfgs {
				if err := CompareReports(want[i], got[i]); err != nil {
					t.Errorf("%s/%s/%s: %v", name, width, cfgs[i], err)
				}
			}
		}
	}
	noRunsInFlight(t)
}

// innerSavingsSrc runs an outer loop, twice. Each outer iteration first
// reads what the iteration before wrote late, then runs two inner loops
// that every configuration parallelizes, writing a carried cell after
// each. A carried write's offset inside its iteration on a class's
// adjusted clock is its serial offset less the savings of the inner loops
// before it, which differ by class.
const innerSavingsSrc = `
const N = 48;
var a [N]int;
var carry [2]int;
func pass(rounds int) int {
	var i int;
	for (i = 0; i < rounds; i = i + 1) {
		var c int = carry[0] + carry[1];
		var j int;
		for (j = 0; j < N; j = j + 1) { a[j] = a[j] + c + j; }
		carry[1] = c + a[i % N];
		for (j = 0; j < N; j = j + 1) { a[j] = a[j] * 3 + 1; }
		carry[0] = carry[1] + a[(i + 7) % N];
	}
	return carry[0];
}
func main() int {
	return pass(40) + pass(25);
}`

// TestMultiRunInnerSavings checks the HELIX savings log of the fact route
// in milliseconds: MultiRun over the paper grid, where HELIX classes read
// the run tracker's raw write offsets through their own savings, against
// per-configuration Run, where each engine stamps adjusted offsets itself.
// Both outer instances start with no live instance, so the log also
// starts over between them. The grid gains the AmortizeHelixDelta
// ablation, whose class takes the same savings lookups and early-outs.
func TestMultiRunInnerSavings(t *testing.T) {
	info, err := AnalyzeSource("savings", innerSavingsSrc)
	if err != nil {
		t.Fatal(err)
	}
	amortized := BestHELIX()
	amortized.AmortizeHelixDelta = true
	cfgs := append(PaperConfigs(), amortized)
	want := make([]*Report, len(cfgs))
	for i, cfg := range cfgs {
		if want[i], err = Run(info, cfg, RunOptions{}); err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		if cfg != BestHELIX() {
			continue
		}
		// The program must keep reaching the log: the outer loop
		// conflicts under HELIX, and the inner loops save time first.
		for _, lr := range want[i].Loops {
			if lr.Depth == 1 && (lr.ConflictIters == 0 || lr.Delta == 0) {
				t.Errorf("%s: outer loop %s has %d conflicting iterations, delta %d; want both > 0",
					cfg, lr.ID, lr.ConflictIters, lr.Delta)
			}
			if lr.Depth == 2 && lr.ParallelInstances == 0 {
				t.Errorf("%s: inner loop %s never ran parallel", cfg, lr.ID)
			}
		}
	}
	for width, p := range multiWidths {
		got, err := MultiRun(info, cfgs, RunOptions{Parallelism: p})
		if err != nil {
			t.Fatalf("%s: %v", width, err)
		}
		for i := range cfgs {
			if err := CompareReports(want[i], got[i]); err != nil {
				t.Errorf("%s/%s: %v", width, cfgs[i], err)
			}
		}
	}
	noRunsInFlight(t)
}

// TestMultiRunAutoSelect exercises MultiRun's default width on both sides
// of the threshold.
func TestMultiRunAutoSelect(t *testing.T) {
	info, err := AnalyzeSource("auto", infrequentSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfgs := range [][]Config{
		{{Model: DOALL}, BestPDOALL()},                               // below threshold: one worker
		{{Model: DOALL}, {Model: PDOALL}, BestPDOALL(), BestHELIX()}, // at threshold: auto width
		append(PaperConfigs(), PaperConfigs()...),                    // well above: auto width
	} {
		got, err := MultiRun(info, cfgs, RunOptions{})
		if err != nil {
			t.Fatalf("MultiRun(%d cfgs): %v", len(cfgs), err)
		}
		for i, cfg := range cfgs {
			want, err := Run(info, cfg, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := CompareReports(want, got[i]); err != nil {
				t.Errorf("%d cfgs, cell %d (%s): %v", len(cfgs), i, cfg, err)
			}
		}
	}
	noRunsInFlight(t)
}

// TestMultiRunEmptyAndInvalid: zero configurations execute once and return
// zero reports; an invalid configuration anywhere in the set fails the
// whole call before execution, and fails a replay before the trace header
// is read, so a corrupt trace still yields the configuration's error.
func TestMultiRunEmptyAndInvalid(t *testing.T) {
	info, err := AnalyzeSource("edge", doallSrc)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Config{{Model: DOALL}, {Model: DOALL, Dep: 99}}
	invalid := bad[1].Validate()
	for width, p := range multiWidths {
		reps, err := MultiRun(info, nil, RunOptions{Parallelism: p})
		if err != nil || len(reps) != 0 {
			t.Errorf("%s: empty cfgs = (%v, %v), want no reports, no error", width, reps, err)
		}
		if _, err := MultiRun(info, bad, RunOptions{Parallelism: p}); err == nil {
			t.Errorf("%s: invalid config accepted", width)
		}
	}
	_, err = ReplayTraceMulti("edge", info, bad, RunOptions{}, strings.NewReader("not a trace"))
	if err == nil || err.Error() != invalid.Error() {
		t.Errorf("ReplayTraceMulti(invalid config, corrupt trace) = %v, want the Validate error %q", err, invalid)
	}
	noRunsInFlight(t)
}

// TestMultiRunExecutionError: a budget trip surfaces once, classified
// exactly as a per-config Run would classify it, at every width.
func TestMultiRunExecutionError(t *testing.T) {
	info, err := AnalyzeSource("budget", doallSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{{Model: DOALL}, BestPDOALL(), BestHELIX(), {Model: PDOALL}}
	for width, p := range multiWidths {
		_, err := MultiRun(info, cfgs, RunOptions{MaxSteps: 10, Parallelism: p})
		if !errors.Is(err, ErrStepLimit) {
			t.Errorf("%s: err = %v, want ErrStepLimit", width, err)
		}
	}
	noRunsInFlight(t)
}

// failWriter fails after n bytes, exercising the sticky trace-error path.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if len(p) <= f.n {
		f.n -= len(p)
		return len(p), nil
	}
	n := f.n
	f.n = 0
	return n, errors.New("disk full")
}

// TestMultiRunTraceWriteFailure: a failing trace sink fails the run from
// every width and from Run.
func TestMultiRunTraceWriteFailure(t *testing.T) {
	info, err := AnalyzeSource("sink", doallSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{{Model: DOALL}, BestPDOALL(), BestHELIX(), {Model: PDOALL}}
	for width, p := range multiWidths {
		_, err := MultiRun(info, cfgs, RunOptions{Trace: &failWriter{n: 100}, Parallelism: p})
		if err == nil || !strings.Contains(err.Error(), "writing trace") {
			t.Errorf("%s: err = %v, want trace write failure", width, err)
		}
	}
	if _, err := Run(info, Config{Model: DOALL}, RunOptions{Trace: &failWriter{n: 100}}); err == nil ||
		!strings.Contains(err.Error(), "writing trace") {
		t.Errorf("Run: err = %v, want trace write failure", err)
	}
	noRunsInFlight(t)
}

// eventLog records every hook event in a retained, comparable form. Ticks
// fold into a running clock that stamps each event: the form a sealed
// chunk preserves, since the producer folds ticks into span sums while
// keeping every memory record's exact clock offset.
type eventLog struct {
	clock  int64
	events []string
}

func (l *eventLog) Tick(n int64) { l.clock += n }

func (l *eventLog) EnterLoop(lm *analysis.LoopMeta, sp int64, init []interp.Val) {
	l.events = append(l.events, fmt.Sprintf("@%d enter %s sp=%d init=%v", l.clock, lm.ID(), sp, init))
}

func (l *eventLog) IterLoop(lm *analysis.LoopMeta, sp int64, obs []interp.LCDObs) {
	l.events = append(l.events, fmt.Sprintf("@%d iter %s sp=%d obs=%v", l.clock, lm.ID(), sp, obs))
}

func (l *eventLog) ExitLoop(lm *analysis.LoopMeta) {
	l.events = append(l.events, fmt.Sprintf("@%d exit %s", l.clock, lm.ID()))
}

func (l *eventLog) Load(addr int64) {
	l.events = append(l.events, fmt.Sprintf("@%d load %d", l.clock, addr))
}

func (l *eventLog) Store(addr int64) {
	l.events = append(l.events, fmt.Sprintf("@%d store %d", l.clock, addr))
}

// sameEvents fails the test unless got observed exactly want's events and
// final clock.
func sameEvents(t *testing.T, who string, got, want *eventLog) {
	t.Helper()
	if len(got.events) != len(want.events) {
		t.Fatalf("%s: %d events, want %d", who, len(got.events), len(want.events))
	}
	for j := range want.events {
		if got.events[j] != want.events[j] {
			t.Fatalf("%s event %d:\n got %s\nwant %s", who, j, got.events[j], want.events[j])
		}
	}
	if got.clock != want.clock {
		t.Fatalf("%s: final clock %d, want %d", who, got.clock, want.clock)
	}
}

// replaySealed expands a sealed chunk back into hook calls: each memory
// span's records at their precomputed clock offsets followed by the rest
// of its tick sum, and each loop event with its payload sub-slice.
func replaySealed(h interp.Hooks, c *evChunk) {
	for _, s := range c.spans {
		switch s.kind {
		case evMemSpan:
			var at int64
			for _, m := range c.mem[s.mstart:s.mend] {
				h.Tick(m.tick - at)
				at = m.tick
				if m.kind == memLoad {
					h.Load(m.addr)
				} else {
					h.Store(m.addr)
				}
			}
			h.Tick(s.sum - at)
		case evEnter:
			r := &c.recs[s.rec]
			h.EnterLoop(r.lm, r.a, c.vals[r.off:r.off+r.n])
		case evIter:
			r := &c.recs[s.rec]
			h.IterLoop(r.lm, r.a, c.obs[r.off:r.off+r.n])
		case evExit:
			h.ExitLoop(c.recs[s.rec].lm)
		}
	}
}

// factRoute readies one engine per configuration, without coalescing, as
// the classes of a multi-class run, and returns the run tracker that seals
// chunks for them.
func factRoute(info *analysis.ModuleInfo, cfgs []Config) ([]*Engine, *runTracker) {
	set := &engineSet{}
	for _, cfg := range cfgs {
		set.engines = append(set.engines, newEngine(info, cfg, nil))
	}
	return set.engines, set.shareTracker(info, nil)
}

// sealOne feeds the events emit produces through the fan-out producer and
// returns the one sealed chunk they fill, failing if they overflow it. The
// chunk carries no facts until a run tracker seals it.
func sealOne(t *testing.T, emit func(h interp.Hooks)) *evChunk {
	t.Helper()
	var sealed []*evChunk
	tee := newChunkTee(func(c *evChunk) *evChunk {
		sealed = append(sealed, c)
		return newChunk()
	})
	emit(tee)
	tee.finish()
	if len(sealed) != 1 {
		t.Fatalf("events filled %d chunks, want 1", len(sealed))
	}
	return sealed[0]
}

// TestChunkFanoutPreservesEventStream drives the producer and the worker
// pool directly: every worker must observe the exact event sequence the
// producer saw, across many chunk publications and free-list reuse, with
// scratch buffers mutated after every event (the aliasing hazard the
// payload copy exists for).
func TestChunkFanoutPreservesEventStream(t *testing.T) {
	info, err := AnalyzeSource("chunks", doallSrc)
	if err != nil {
		t.Fatal(err)
	}
	lm := info.Loops[0]

	emit := func(h interp.Hooks) {
		scratchV := make([]interp.Val, 1)
		scratchO := make([]interp.LCDObs, 2)
		// Enough memory records for a dozen full chunks and a partial tail.
		for i := 0; i < 20*chunkRecs+17; i++ {
			switch i % 8 {
			case 0:
				h.Tick(int64(i))
			case 1:
				scratchV[0] = interp.Val{K: ir.KInt, I: int64(i)}
				h.EnterLoop(lm, int64(1000+i), scratchV)
				scratchV[0] = interp.Val{K: ir.KInt, I: -1} // stale scratch
			case 2:
				scratchO[0] = interp.LCDObs{Val: interp.Val{K: ir.KFloat, F: float64(i) / 3}, DefTick: int64(i)}
				scratchO[1] = interp.LCDObs{Val: interp.Val{K: ir.KBool, I: int64(i % 2)}, DefTick: 7}
				h.IterLoop(lm, int64(i), scratchO)
				scratchO[0], scratchO[1] = interp.LCDObs{}, interp.LCDObs{} // stale scratch
			case 3, 5, 7:
				h.Load(int64(i * 8))
			case 4, 6:
				h.Store(int64(i * 8))
			}
		}
		h.ExitLoop(lm)
	}

	var want eventLog
	emit(&want)

	const consumers = 3
	logs := make([]eventLog, consumers)
	publications, seen := 0, map[*evChunk]bool{}
	replayers := make([]func(*evChunk), consumers)
	for i := range replayers {
		replayers[i] = func(c *evChunk) {
			if i == 0 {
				publications++
				seen[c] = true
			}
			replaySealed(&logs[i], c)
		}
	}
	pool := startWorkers(replayers)
	tee := newChunkTee(pool.publish)
	emit(tee)
	tee.finish()
	if p := pool.close(); p != nil {
		t.Fatalf("unexpected worker panic: %v", p)
	}

	// The pool never allocates more than fanoutChunks chunks, so a dozen
	// publications must recycle them through the free list.
	if publications < 12 || len(seen) > fanoutChunks {
		t.Errorf("%d publications used %d distinct chunks, want >= 12 publications over <= %d chunks",
			publications, len(seen), fanoutChunks)
	}
	for i := range logs {
		sameEvents(t, fmt.Sprintf("worker %d", i), &logs[i], &want)
	}
}

// TestConsumerPanicRecovery: a panic inside one pool worker must surface
// as a classified *PanicError, workers of other groups must still see the
// full stream, and the producer must never deadlock (the sick worker keeps
// draining its channel). Exercised at both group shapes: one replayer per
// worker, and a sick worker whose group replays another consumer too.
func TestConsumerPanicRecovery(t *testing.T) {
	for name, groups := range map[string]func(bad func(*evChunk), healthy *eventLog) []func(*evChunk){
		"one-per-worker": func(bad func(*evChunk), healthy *eventLog) []func(*evChunk) {
			return []func(*evChunk){bad, func(c *evChunk) { replaySealed(healthy, c) }}
		},
		"shared-group": func(bad func(*evChunk), healthy *eventLog) []func(*evChunk) {
			// Only the healthy worker's group is guaranteed the full stream.
			var sibling eventLog
			return []func(*evChunk){
				func(c *evChunk) { bad(c); replaySealed(&sibling, c) },
				func(c *evChunk) { replaySealed(healthy, c) },
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			var healthy eventLog
			chunks := 0
			bad := func(*evChunk) {
				if chunks++; chunks == 2 {
					panic("consumer bug")
				}
			}
			pool := startWorkers(groups(bad, &healthy))
			tee := newChunkTee(pool.publish)

			// Far more chunks than the pool holds: without draining, the
			// producer would block forever waiting for the dead worker to
			// release one.
			total := (fanoutChunks + 8) * chunkRecs
			for i := 0; i < total; i++ {
				tee.Tick(1)
				tee.Load(int64(i))
			}
			tee.finish()

			p := pool.close()
			if p == nil || p.Val != "consumer bug" {
				t.Fatalf("panic = %+v, want recovered consumer bug", p)
			}
			var pe *PanicError
			if !errors.As(error(p), &pe) {
				t.Fatalf("worker panic %T does not unwrap as *PanicError", p)
			}
			if len(healthy.events) != total || healthy.clock != int64(total) {
				t.Errorf("healthy worker saw %d events at clock %d, want %d at %d",
					len(healthy.events), healthy.clock, total, total)
			}
		})
	}
}

// TestRunTraceMatchesUntraced: wiring a trace sink into Run must not
// change the report.
func TestRunTraceMatchesUntraced(t *testing.T) {
	info, err := AnalyzeSource("teed", infrequentSrc)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(info, BestPDOALL(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	traced, err := Run(info, BestPDOALL(), RunOptions{Trace: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if err := CompareReports(plain, traced); err != nil {
		t.Errorf("trace tee changed the report: %v", err)
	}
	if buf.Len() == 0 {
		t.Error("no trace bytes written")
	}
}

// TestReplayChunkPayloadAliasing is interp's TestHooksScratchBufferOwnership
// transplanted to chunk replay. replayChunk hands engines sub-slices of the
// chunk's flat payload arrays — no per-event copy, so a warm replay
// allocates nothing — and the producer refills a reused chunk in place, so
// a retained sub-slice observably reads the next filling. Engines must
// therefore never retain payloads: an engine's report must not move when
// the chunk it replayed is refilled. If the allocation check fails, chunk
// replay started copying per event and the zero-allocation contract of the
// fan-out is gone.
func TestReplayChunkPayloadAliasing(t *testing.T) {
	info, err := AnalyzeSource("alias", predictableSrc)
	if err != nil {
		t.Fatal(err)
	}
	run := func(h interp.Hooks) {
		if err := interpret(info, RunOptions{}, h); err != nil {
			t.Fatal(err)
		}
	}
	c := sealOne(t, run)
	if len(c.vals) == 0 || len(c.obs) == 0 {
		t.Fatalf("program produced %d init values and %d observations, want both", len(c.vals), len(c.obs))
	}
	cfg := BestPDOALL() // dep2: init values and observations both live
	engines, tr := factRoute(info, []Config{cfg, cfg})
	tr.seal(c)
	e, warm := engines[0], engines[1]
	e.replayChunk(c)
	before := e.Report("alias")
	if want, err := Run(info, cfg, RunOptions{}); err != nil {
		t.Fatal(err)
	} else if err := CompareReports(want, before); err != nil {
		t.Fatalf("chunk replay diverges from Run: %v", err)
	}

	warm.replayChunk(c)
	if allocs := testing.AllocsPerRun(5, func() { warm.replayChunk(c) }); allocs != 0 {
		t.Errorf("warm replayChunk allocates %.1f times per chunk, want 0", allocs)
	}

	// Refill the chunk in place, as the inline path and the free list do.
	staleVals, staleObs := c.vals[:1], c.obs[:1]
	c.reset()
	tee := newChunkTee(func(c *evChunk) *evChunk { return c })
	tee.cur = c
	lm := info.Loops[0]
	tee.EnterLoop(lm, 0, []interp.Val{{K: ir.KInt, I: 900}})
	tee.IterLoop(lm, 0, []interp.LCDObs{{DefTick: 901}})
	if staleVals[0].I != 900 || staleObs[0].DefTick != 901 {
		t.Errorf("retained payload reads (%d, %d), want the refill's (900, 901): chunk reuse must show through the alias",
			staleVals[0].I, staleObs[0].DefTick)
	}
	if err := CompareReports(before, e.Report("alias")); err != nil {
		t.Errorf("refilling a replayed chunk changed the engine's report: %v", err)
	}
}

// traceHeavySrc records a trace that outgrows the trace writer's buffer,
// so the writer's first write happens mid-run.
const traceHeavySrc = `
func main() int {
	var a [64]int;
	var s int = 0;
	for (var i int = 0; i < 20000; i = i + 1) { a[i % 64] = i; s = s + a[(i + 1) % 64]; }
	return s;
}`

// panicWriter is a trace sink that panics on its first write.
type panicWriter struct{}

func (panicWriter) Write([]byte) (int, error) { panic("sink bug") }

// TestMultiRunProducerPanic: a panic on the producing goroutine — here in
// the trace sink, mid-run, once the trace outgrows the writer's buffer —
// surfaces as a typed *PanicError from Run, from a one-class MultiRun (the
// engine-hooks route) and from a multi-class MultiRun at every width, and
// a pooled run's workers exit instead of leaking.
func TestMultiRunProducerPanic(t *testing.T) {
	info, err := AnalyzeSource("sinkpanic", traceHeavySrc)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	check := func(who string, err error) {
		t.Helper()
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Val != "sink bug" {
			t.Errorf("%s: err = %v, want the sink's *PanicError", who, err)
		}
	}
	oneClass := make([]Config, FanoutThreshold)
	for i := range oneClass {
		oneClass[i] = BestPDOALL()
	}
	for width, p := range multiWidths {
		opts := RunOptions{Trace: panicWriter{}, Parallelism: p}
		_, err := MultiRun(info, PaperConfigs(), opts)
		check(width, err)
		_, err = MultiRun(info, oneClass, opts)
		check(width+"/one-class", err)
	}
	_, err = Run(info, BestHELIX(), RunOptions{Trace: panicWriter{}})
	check("Run", err)
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the runs, %d before: pool workers leaked", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
	noRunsInFlight(t)
}
