package core

import (
	"math/rand"
	"reflect"
	"testing"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/interp"
	"loopapalooza/internal/ir"
	"loopapalooza/internal/predict"
)

// fakeMeta builds a minimal canonical loop record so engine cost semantics
// can be driven directly through the hook interface (the Figure 1 golden
// tests).
func fakeMeta() *analysis.LoopMeta {
	m := ir.NewModule("golden")
	f := m.AddFunction("f", ir.Void)
	entry := ir.NewBuilder(f)
	head := f.NewBlock("head")
	body := f.NewBlock("body")
	exit := f.NewBlock("exit")
	entry.Jmp(head)
	entry.SetBlock(head)
	entry.Br(ir.ConstBool(true), body, exit)
	entry.SetBlock(body)
	entry.Jmp(head)
	entry.SetBlock(exit)
	entry.Ret(nil)
	f.Renumber()
	l := &analysis.Loop{
		Header:    head,
		Latch:     body,
		Preheader: f.Entry(),
		Blocks:    map[*ir.Block]bool{head: true, body: true},
		Depth:     1,
	}
	return &analysis.LoopMeta{Loop: l}
}

func newGoldenEngine(t *testing.T, cfg Config) (*Engine, *analysis.LoopMeta) {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	lm := fakeMeta()
	info := &analysis.ModuleInfo{Loops: []*analysis.LoopMeta{lm}}
	return NewEngine(info, cfg), lm
}

const heapAddr = int64(interp.HeapBase + 100)

// TestFigure1DOALL: iterations of cost 10/20/10/15 with no conflicts cost
// the slowest iteration (Figure 1a).
func TestFigure1DOALL(t *testing.T) {
	e, lm := newGoldenEngine(t, Config{Model: DOALL})
	e.EnterLoop(lm, interp.StackTop, nil)
	for _, cost := range []int64{10, 20, 10, 15} {
		e.Tick(cost)
		e.IterLoop(lm, interp.StackTop, nil)
	}
	e.Tick(1) // exit test in the header
	e.ExitLoop(lm)

	if e.SerialCost() != 56 {
		t.Fatalf("serial = %d, want 56", e.SerialCost())
	}
	if e.ParallelCost() != 56-36 {
		t.Errorf("parallel = %d, want 20 (slowest iteration)", e.ParallelCost())
	}
}

// TestFigure1DOALLConflict: one cross-iteration RAW serializes the whole
// loop and marks it sequential for good.
func TestFigure1DOALLConflict(t *testing.T) {
	e, lm := newGoldenEngine(t, Config{Model: DOALL})
	e.EnterLoop(lm, interp.StackTop, nil)
	e.Tick(5)
	e.Store(heapAddr)
	e.Tick(5)
	e.IterLoop(lm, interp.StackTop, nil)
	e.Tick(3)
	e.Load(heapAddr) // iteration 1 reads iteration 0's write
	e.Tick(7)
	e.IterLoop(lm, interp.StackTop, nil)
	e.Tick(1)
	e.ExitLoop(lm)

	if e.ParallelCost() != e.SerialCost() {
		t.Errorf("parallel = %d, want serial %d", e.ParallelCost(), e.SerialCost())
	}
	st := e.Stats()[lm]
	if st.Reason != SerialConflict {
		t.Errorf("reason = %s, want memory conflicts", st.Reason)
	}
	// The mark is sticky: a second, conflict-free instance stays serial.
	e.EnterLoop(lm, interp.StackTop, nil)
	e.Tick(10)
	e.IterLoop(lm, interp.StackTop, nil)
	e.Tick(10)
	e.IterLoop(lm, interp.StackTop, nil)
	e.ExitLoop(lm)
	if e.ParallelCost() != e.SerialCost() {
		t.Errorf("sticky serialization violated: parallel %d, serial %d", e.ParallelCost(), e.SerialCost())
	}
}

// TestFigure1PDOALL: a conflict splits execution into two phases, each
// costing its slowest iteration (Figure 1b).
func TestFigure1PDOALL(t *testing.T) {
	e, lm := newGoldenEngine(t, Config{Model: PDOALL})
	e.EnterLoop(lm, interp.StackTop, nil)
	// Iteration 0 (cost 10) writes.
	e.Tick(4)
	e.Store(heapAddr)
	e.Tick(6)
	e.IterLoop(lm, interp.StackTop, nil)
	// Iteration 1 (cost 20), clean.
	e.Tick(20)
	e.IterLoop(lm, interp.StackTop, nil)
	// Iteration 2 (cost 10) reads iteration 0's value: phase break.
	e.Tick(2)
	e.Load(heapAddr)
	e.Tick(8)
	e.IterLoop(lm, interp.StackTop, nil)
	// Iteration 3 (cost 15), clean.
	e.Tick(15)
	e.IterLoop(lm, interp.StackTop, nil)
	e.Tick(1)
	e.ExitLoop(lm)

	serial := int64(10 + 20 + 10 + 15 + 1)
	if e.SerialCost() != serial {
		t.Fatalf("serial = %d, want %d", e.SerialCost(), serial)
	}
	// Phase 1 = max(10, 20) = 20; phase 2 = max(10, 15, 1) = 15.
	wantParallel := int64(20 + 15)
	if got := e.ParallelCost(); got != wantParallel {
		t.Errorf("parallel = %d, want %d", got, wantParallel)
	}
	st := e.Stats()[lm]
	if st.ConflictIters != 1 {
		t.Errorf("conflict iterations = %d, want 1", st.ConflictIters)
	}
	if st.Reason != SerialNone {
		t.Errorf("loop serialized: %s", st.Reason)
	}
}

// TestPDOALLGivesUpOver80Percent: conflicts in >80% of iterations mark the
// loop sequential (§III-B).
func TestPDOALLGivesUpOver80Percent(t *testing.T) {
	e, lm := newGoldenEngine(t, Config{Model: PDOALL})
	e.EnterLoop(lm, interp.StackTop, nil)
	// Iteration 0 writes; every later iteration reads and rewrites:
	// 9 of 10 iterations conflict.
	e.Store(heapAddr)
	e.Tick(10)
	e.IterLoop(lm, interp.StackTop, nil)
	for i := 0; i < 9; i++ {
		e.Load(heapAddr)
		e.Store(heapAddr)
		e.Tick(10)
		e.IterLoop(lm, interp.StackTop, nil)
	}
	e.Tick(1)
	e.ExitLoop(lm)

	if e.ParallelCost() != e.SerialCost() {
		t.Errorf("parallel = %d, want serial %d", e.ParallelCost(), e.SerialCost())
	}
	if got := e.Stats()[lm].Reason; got != SerialConflict {
		t.Errorf("reason = %s, want memory conflicts", got)
	}
}

// TestFigure1HELIX: frequent dependencies are satisfied by synchronization:
// cost = iter_slowest + delta_largest * num_iter (Figure 1c, §III-B).
func TestFigure1HELIX(t *testing.T) {
	e, lm := newGoldenEngine(t, Config{Model: HELIX})
	e.EnterLoop(lm, interp.StackTop, nil)
	// Every iteration costs 10: writes at offset 4, reads at offset 2
	// the value of the previous iteration => slope (4-2)/1 = 2.
	e.Tick(4)
	e.Store(heapAddr)
	e.Tick(6)
	e.IterLoop(lm, interp.StackTop, nil)
	for i := 0; i < 3; i++ {
		e.Tick(2)
		e.Load(heapAddr)
		e.Tick(2)
		e.Store(heapAddr)
		e.Tick(6)
		e.IterLoop(lm, interp.StackTop, nil)
	}
	e.Tick(1)
	e.ExitLoop(lm)

	serial := int64(4*10 + 1)
	if e.SerialCost() != serial {
		t.Fatalf("serial = %d, want %d", e.SerialCost(), serial)
	}
	// iter_slowest = 10, delta_largest = 2, num_iter = 4 => 18.
	if got := e.ParallelCost(); got != 18 {
		t.Errorf("parallel = %d, want 18", got)
	}
}

// TestHELIXNoGainFallsBackToSerial: when the synchronized cost reaches the
// serial cost the loop is recorded as serial.
func TestHELIXNoGainFallsBackToSerial(t *testing.T) {
	e, lm := newGoldenEngine(t, Config{Model: HELIX})
	e.EnterLoop(lm, interp.StackTop, nil)
	// Producer at the very end of each iteration, consumer at the very
	// start: slope == iteration length. Sync saves nothing.
	e.Tick(1)
	e.Store(heapAddr)
	e.IterLoop(lm, interp.StackTop, nil)
	for i := 0; i < 3; i++ {
		e.Load(heapAddr)
		e.Tick(10)
		e.Store(heapAddr)
		e.IterLoop(lm, interp.StackTop, nil)
	}
	e.ExitLoop(lm)

	if e.ParallelCost() != e.SerialCost() {
		t.Errorf("parallel = %d, want serial %d", e.ParallelCost(), e.SerialCost())
	}
	if got := e.Stats()[lm].Reason; got != SerialNoGain {
		t.Errorf("reason = %s, want sync-no-gain", got)
	}
}

// TestCactusStackExemption: stack writes in frames pushed after iteration
// start must not count as cross-iteration conflicts (§II-E).
func TestCactusStackExemption(t *testing.T) {
	e, lm := newGoldenEngine(t, Config{Model: DOALL})
	frameAddr := int64(interp.StackTop - 50) // below the iteration-start SP
	sp := int64(interp.StackTop - 10)
	e.EnterLoop(lm, sp, nil)
	// Iteration 0 calls a function whose frame writes frameAddr.
	e.Tick(5)
	e.Store(frameAddr)
	e.Tick(5)
	e.IterLoop(lm, sp, nil)
	// Iteration 1's callee reuses the same stack cell: a RAW would
	// manifest without the exemption.
	e.Tick(5)
	e.Load(frameAddr)
	e.Tick(5)
	e.IterLoop(lm, sp, nil)
	e.Tick(1)
	e.ExitLoop(lm)

	if got := e.Stats()[lm].Reason; got != SerialNone {
		t.Errorf("stack reuse serialized the loop: %s", got)
	}
	if e.ParallelCost() >= e.SerialCost() {
		t.Errorf("no speedup: parallel %d, serial %d", e.ParallelCost(), e.SerialCost())
	}
}

// TestNestedSavingsPropagate: an inner parallel loop shrinks the enclosing
// iteration on the adjusted clock, and the outer loop parallelizes on top
// (multi-level nested parallelism).
func TestNestedSavingsPropagate(t *testing.T) {
	e, outer := newGoldenEngine(t, Config{Model: DOALL})
	inner := fakeMeta()
	e.info.Loops = append(e.info.Loops, inner)

	runInner := func() {
		e.EnterLoop(inner, interp.StackTop, nil)
		for i := 0; i < 10; i++ {
			e.Tick(10)
			e.IterLoop(inner, interp.StackTop, nil)
		}
		e.ExitLoop(inner) // cost 100 -> 10
	}
	e.EnterLoop(outer, interp.StackTop, nil)
	for i := 0; i < 4; i++ {
		runInner()
		e.Tick(5)
		e.IterLoop(outer, interp.StackTop, nil)
	}
	e.ExitLoop(outer)

	// Serial: 4 * 105 = 420. Inner instances compress to 10 each, so
	// each outer iteration is 15 adjusted; outer slowest = 15.
	if e.SerialCost() != 420 {
		t.Fatalf("serial = %d, want 420", e.SerialCost())
	}
	if got := e.ParallelCost(); got != 15 {
		t.Errorf("parallel = %d, want 15 (nested parallelism)", got)
	}
}

// TestCoverageAccounting: coverage counts serial ticks inside parallel
// loops once, preferring the outermost parallel instance.
func TestCoverageAccounting(t *testing.T) {
	e, lm := newGoldenEngine(t, Config{Model: DOALL})
	e.Tick(50) // outside any loop: uncovered
	e.EnterLoop(lm, interp.StackTop, nil)
	for i := 0; i < 5; i++ {
		e.Tick(10)
		e.IterLoop(lm, interp.StackTop, nil)
	}
	e.ExitLoop(lm)
	e.Tick(50)

	r := e.Report("golden")
	if r.SerialCost != 150 {
		t.Fatalf("serial = %d", r.SerialCost)
	}
	if r.CoveredTicks != 50 {
		t.Errorf("covered = %d, want 50", r.CoveredTicks)
	}
	if got := r.Coverage(); got < 0.33 || got > 0.34 {
		t.Errorf("coverage = %f, want ~1/3", got)
	}
}

// TestStaticPremarks checks the Table II static rejections.
func TestStaticPremarks(t *testing.T) {
	lm := fakeMeta()
	lm.HasCall = true
	cases := []struct {
		cfg  Config
		want SerialReason
	}{
		{Config{Model: DOALL, Fn: 0}, SerialCall},
		{Config{Model: PDOALL, Fn: 1}, SerialNone}, // pure-only call set empty here
		{Config{Model: PDOALL, Fn: 3}, SerialNone},
	}
	for _, c := range cases {
		info := &analysis.ModuleInfo{Loops: []*analysis.LoopMeta{lm}}
		e := NewEngine(info, c.cfg)
		if got := e.Stats()[lm].Reason; got != c.want {
			t.Errorf("%s: reason = %s, want %s", c.cfg, got, c.want)
		}
	}
}

// lazyPredSrc has three loops with a load-dependent register LCD: the
// first calls a function (statically serial under fn0), the second is
// never entered, and the third is tracked. The third one's LCD advances
// by a loaded step, so its predictors hit and its hit rate counts every
// observation, the live-in value at entry included.
const lazyPredSrc = `
var tab [64]int;
var out [32]int;
var state [1]int;
func touch(x int) int { state[0] = x; return x; }
func main() int {
	var i int;
	var x int = 1;
	for (i = 0; i < 64; i = i + 1) { tab[i] = (i * 7) % 64; }
	for (i = 0; i < 32; i = i + 1) { x = tab[x % 64] + touch(i); }
	if (state[0] > 1000) {
		for (i = 0; i < 32; i = i + 1) { x = tab[x % 64] + i; }
	}
	for (i = 0; i < 32; i = i + 1) { out[i] = x; x = x + tab[5]; }
	return x;
}`

// TestPredictorsBuiltOnFirstTrackedEntry: under dep2 and dep3 an engine
// builds predictors only for loops it tracks, so the statically serial
// loop and the never-entered loop get none. The report is the same as
// with predictors built for every loop up front.
func TestPredictorsBuiltOnFirstTrackedEntry(t *testing.T) {
	info, err := AnalyzeSource("lazy", lazyPredSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Model: PDOALL, Reduc: 1, Dep: 2, Fn: 0},
		{Model: HELIX, Reduc: 1, Dep: 3, Fn: 0},
	} {
		lazy := NewEngine(info, cfg)
		eager := NewEngine(info, cfg)
		for lm, st := range eager.Stats() {
			if n := len(lm.Observed); n > 0 {
				st.preds = eager.newPreds(n)
			}
		}
		for _, e := range []*Engine{lazy, eager} {
			if err := interpret(info, RunOptions{}, e); err != nil {
				t.Fatal(err)
			}
		}
		var serial, unentered, tracked int
		for _, lm := range info.Loops {
			st := lazy.Stats()[lm]
			if len(lm.Observed) == 0 {
				continue
			}
			switch {
			case st.StaticallySerial:
				serial++
			case st.Instances == 0:
				unentered++
			default:
				tracked++
				if len(st.preds) != len(lm.Observed) {
					t.Errorf("%s: tracked loop %s has %d predictors, want %d", cfg, lm.ID(), len(st.preds), len(lm.Observed))
				}
				if h, ok := st.preds[0].(*predict.Hybrid); ok {
					if c, n := h.Stats(); c == 0 || n != 33 {
						t.Errorf("%s: tracked loop %s predicted %d of %d values, want hits out of 33 (entry + 32 iterations)",
							cfg, lm.ID(), c, n)
					}
				}
				continue
			}
			if st.preds != nil {
				t.Errorf("%s: loop %s (instances %d, reason %s) built %d predictors, want none",
					cfg, lm.ID(), st.Instances, st.Reason, len(st.preds))
			}
		}
		if serial != 1 || unentered != 1 || tracked != 1 {
			t.Fatalf("%s: statically serial/never entered/tracked loops with LCDs = %d/%d/%d, want 1/1/1",
				cfg, serial, unentered, tracked)
		}
		got, want := lazy.Report("lazy"), eager.Report("lazy")
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: report differs from the one with predictors built up front:\n got %+v\nwant %+v", cfg, got, want)
		}
	}
}

// TestSavingsLog checks the savings log against a plain list of every
// exit's savings: random busy stretches, each long enough to span several
// blocks and ended by an idle exit that starts the log over, must answer
// every ordinal range inside the stretch as the savings made in it.
func TestSavingsLog(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var l savingsLog
	defer l.release()
	ord, savings := int64(0), int64(0)
	for stretch := 0; stretch < 4; stretch++ {
		first := ord           // the stretch starts after this loop event
		at := []int64{savings} // at[k]: savings after loop event first+k
		for n := savingsBlock + rng.Intn(3*savingsBlock); n > 0; n-- {
			ord++
			if rng.Intn(3) == 0 { // an exit; some save nothing
				savings += int64(rng.Intn(2) * rng.Intn(50))
				l.exit(ord, savings, false)
			}
			at = append(at, savings)
		}
		for q := 0; q < 500; q++ {
			from := rng.Int63n(int64(len(at)))
			to := from + rng.Int63n(int64(len(at))-from)
			if got, want := l.between(first+from, first+to), at[to]-at[from]; got != want {
				t.Fatalf("stretch %d: between(%d, %d) = %d, want %d", stretch, first+from, first+to, got, want)
			}
		}
		ord++
		savings += int64(rng.Intn(50))
		l.exit(ord, savings, true) // the last live instance exits
	}
}
