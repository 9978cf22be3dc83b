package core

import (
	"runtime"
	"strings"
	"testing"
)

func study(t *testing.T, src string, cfg Config) *Report {
	t.Helper()
	r, err := RunSource("prog", src, cfg, RunOptions{})
	if err != nil {
		t.Fatalf("RunSource(%s): %v", cfg, err)
	}
	return r
}

// doallSrc: perfectly independent iterations.
const doallSrc = `
const N = 256;
var a [N]int;
var b [N]int;
func main() int {
	var i int;
	for (i = 0; i < N; i = i + 1) {
		b[i] = a[i] * 3 + 7;
	}
	return b[N-1];
}`

func TestEndToEndDOALLParallel(t *testing.T) {
	r := study(t, doallSrc, Config{Model: DOALL})
	if s := r.Speedup(); s < 20 {
		t.Errorf("DOALL speedup = %.2f, want large (independent iterations)", s)
	}
	if len(r.Loops) != 1 || !r.Loops[0].Parallel {
		t.Errorf("loop not parallel: %+v", r.Loops)
	}
	if c := r.Coverage(); c < 0.5 {
		t.Errorf("coverage = %.2f, want mostly covered", c)
	}
}

// recurrenceSrc: a[i] depends on a[i-1]: a frequent memory LCD.
const recurrenceSrc = `
const N = 256;
var a [N]int;
func main() int {
	var i int;
	a[0] = 1;
	for (i = 1; i < N; i = i + 1) {
		a[i] = a[i-1] + i;
	}
	return a[N-1];
}`

func TestEndToEndFrequentMemoryLCD(t *testing.T) {
	// DOALL: first conflict serializes.
	r := study(t, recurrenceSrc, Config{Model: DOALL})
	if s := r.Speedup(); s > 1.05 {
		t.Errorf("DOALL speedup = %.2f on serial chain, want ~1", s)
	}
	// PDOALL: nearly every iteration conflicts -> over the 80%% limit.
	r = study(t, recurrenceSrc, Config{Model: PDOALL})
	if s := r.Speedup(); s > 1.05 {
		t.Errorf("PDOALL speedup = %.2f on frequent LCD, want ~1", s)
	}
	reason := r.Loops[0].Reason
	if reason != SerialConflict && reason != SerialNoGain {
		t.Errorf("reason = %s", reason)
	}
	// HELIX: synchronization tolerates the frequent LCD; the producer
	// (store) sits near the consumer (load), so slope is small and some
	// overlap survives.
	r = study(t, recurrenceSrc, Config{Model: HELIX})
	if s := r.Speedup(); s < 1.2 {
		t.Errorf("HELIX speedup = %.2f on frequent memory LCD, want > 1.2", s)
	}
}

// infrequentSrc: a conflict on ~6%% of iterations (every 16th).
const infrequentSrc = `
const N = 512;
var a [N]int;
var acc [40]int;
func main() int {
	var i int;
	for (i = 1; i < N; i = i + 1) {
		a[i] = a[i] * 2 + 1;
		if (i % 16 == 0) {
			acc[3] = acc[3] + a[i];     // rare cross-iteration RAW chain
		}
	}
	return acc[3];
}`

func TestEndToEndInfrequentConflicts(t *testing.T) {
	rDoall := study(t, infrequentSrc, Config{Model: DOALL})
	rPdoall := study(t, infrequentSrc, Config{Model: PDOALL})
	if s := rDoall.Speedup(); s > 1.05 {
		t.Errorf("DOALL speedup = %.2f, want ~1 (any conflict kills it)", s)
	}
	if s := rPdoall.Speedup(); s < 3 {
		t.Errorf("PDOALL speedup = %.2f, want substantial (infrequent conflicts)", s)
	}
	lr := rPdoall.Loops[0]
	rate := lr.ConflictIterRate()
	if rate <= 0 || rate > 0.2 {
		t.Errorf("conflict rate = %.3f, want small nonzero", rate)
	}
}

// reductionSrc: the only LCD is a sum accumulator.
const reductionSrc = `
const N = 256;
var a [N]int;
func main() int {
	var s int = 0;
	var i int;
	for (i = 0; i < N; i = i + 1) {
		s = s + a[i] + i;
	}
	return s;
}`

func TestEndToEndReductionFlags(t *testing.T) {
	// reduc0-dep0: the reduction is an unrelaxed non-computable LCD.
	r := study(t, reductionSrc, Config{Model: PDOALL, Reduc: 0, Dep: 0})
	if s := r.Speedup(); s > 1.05 {
		t.Errorf("reduc0-dep0 speedup = %.2f, want ~1", s)
	}
	if got := r.Loops[0].Reason; got != SerialReduction {
		t.Errorf("reason = %s, want reduction", got)
	}
	// reduc1: the reduction is free.
	r = study(t, reductionSrc, Config{Model: PDOALL, Reduc: 1, Dep: 0})
	if s := r.Speedup(); s < 10 {
		t.Errorf("reduc1 speedup = %.2f, want large", s)
	}
	if r.Census.Count(DepReduction) != 1 {
		t.Errorf("census reductions = %d, want 1", r.Census.Count(DepReduction))
	}
}

// predictableSrc: x evolves by a loop-invariant value loaded from memory —
// non-computable for SCEV (the step is a load) but trivially predictable.
const predictableSrc = `
const N = 256;
var step [1]int;
var out [N]int;
func main() int {
	step[0] = 3;
	var x int = 0;
	var i int;
	for (i = 0; i < N; i = i + 1) {
		out[i] = x;
		x = x + step[0];
	}
	return x;
}`

func TestEndToEndValuePrediction(t *testing.T) {
	// dep0: the register LCD bars parallelization.
	r := study(t, predictableSrc, Config{Model: PDOALL, Dep: 0})
	if got := r.Loops[0].Reason; got != SerialRegLCD {
		t.Errorf("dep0 reason = %s, want register LCD", got)
	}
	// dep2: the stride predictor captures x.
	r = study(t, predictableSrc, Config{Model: PDOALL, Dep: 2})
	if s := r.Speedup(); s < 10 {
		t.Errorf("dep2 speedup = %.2f, want large (predictable LCD)", s)
	}
	if hr := r.Loops[0].PredHitRate; hr < 0.9 {
		t.Errorf("hit rate = %.2f, want >= 0.9", hr)
	}
	if r.Census.Count(DepPredictableReg) != 1 {
		t.Errorf("census predictable = %d, want 1", r.Census.Count(DepPredictableReg))
	}
}

// unpredictableSrc: x chases pseudo-random table contents.
const unpredictableSrc = `
const N = 509;
var next [N]int;
var sink [N]int;
func main() int {
	var i int;
	for (i = 0; i < N; i = i + 1) {
		next[i] = (i * 293 + 71) % N;
	}
	var x int = 1;
	for (i = 0; i < 2000; i = i + 1) {
		sink[x % N] = i;
		x = (next[x] + i) % N;    // aperiodic: FCM cannot learn it
	}
	return x;
}`

func TestEndToEndUnpredictableLCD(t *testing.T) {
	r := study(t, unpredictableSrc, Config{Model: PDOALL, Dep: 2})
	var chase *LoopReport
	for i := range r.Loops {
		if r.Loops[i].NonComputable > 0 {
			chase = &r.Loops[i]
		}
	}
	if chase == nil {
		t.Fatalf("no loop with a non-computable LCD: %+v", r.Loops)
	}
	if chase.PredHitRate > 0.6 {
		t.Errorf("hit rate = %.2f on pointer chase, want low", chase.PredHitRate)
	}
	// dep3 (perfect prediction) must beat dep2 here.
	r3 := study(t, unpredictableSrc, Config{Model: PDOALL, Dep: 3})
	if r3.Speedup() < r.Speedup() {
		t.Errorf("dep3 (%.2f) should not lose to dep2 (%.2f)", r3.Speedup(), r.Speedup())
	}
}

// dep1Src: a frequent unpredictable register LCD that HELIX-dep1 lowers to
// memory. The producer executes early in the iteration, so sync is cheap.
const dep1Src = `
const N = 509;
var next [N]int;
var work [64]float;
func main() int {
	var i int;
	for (i = 0; i < N; i = i + 1) {
		next[i] = (i * 293 + 71) % N;
	}
	var x int = 1;
	var acc float = 0.0;
	for (i = 0; i < 1000; i = i + 1) {
		x = (next[x] + i) % N;    // aperiodic handoff, produced early

		var j int;
		var t float = 0.0;
		for (j = 0; j < 16; j = j + 1) {
			t = t + float(x + j) * 0.5;
		}
		acc = acc + t;
	}
	return int(acc) + x;
}`

func TestEndToEndHELIXDep1(t *testing.T) {
	// PDOALL-dep2 fails: x is unpredictable and manifests each iteration.
	r2 := study(t, dep1Src, Config{Model: PDOALL, Reduc: 1, Dep: 2, Fn: 2})
	// HELIX-dep1 synchronizes the x hand-off early in each iteration.
	r1 := study(t, dep1Src, Config{Model: HELIX, Reduc: 1, Dep: 1, Fn: 2})
	if r1.Speedup() < 1.5 {
		t.Errorf("HELIX dep1 speedup = %.2f, want > 1.5", r1.Speedup())
	}
	if r1.Speedup() <= r2.Speedup() {
		t.Errorf("HELIX dep1 (%.2f) should beat PDOALL dep2 (%.2f) on frequent unpredictable LCDs",
			r1.Speedup(), r2.Speedup())
	}
}

// callSrc: loops whose bodies call functions of each purity class.
const callSrc = `
const N = 128;
var a [N]int;
var state [1]int;
func pure_sq(x int) int { return x * x; }
func impure_touch(x int) int { state[0] = x; return state[0]; }
func main() int {
	var i int;
	var s1 int = 0;
	for (i = 0; i < N; i = i + 1) { a[i] = pure_sq(i); }
	for (i = 0; i < N; i = i + 1) { a[i] = a[i] + rand() % 3; }
	return a[5];
}`

func TestEndToEndFnFlags(t *testing.T) {
	// fn0: both loops have calls -> both serial.
	r := study(t, callSrc, Config{Model: PDOALL, Fn: 0})
	for _, lr := range r.Loops {
		if lr.Parallel {
			t.Errorf("fn0: loop %s parallel despite calls", lr.ID)
		}
	}
	// fn1: the pure_sq loop unlocks; the rand loop stays serial.
	r = study(t, callSrc, Config{Model: PDOALL, Fn: 1})
	var parallel, serial int
	for _, lr := range r.Loops {
		if lr.Parallel {
			parallel++
		} else if lr.Reason == SerialCall {
			serial++
		}
	}
	if parallel != 1 || serial != 1 {
		t.Errorf("fn1: parallel/serial = %d/%d, want 1/1", parallel, serial)
	}
	// fn2: rand is a non-re-entrant library call -> still serial.
	r = study(t, callSrc, Config{Model: PDOALL, Fn: 2})
	foundSerialRand := false
	for _, lr := range r.Loops {
		if !lr.Parallel && lr.Reason == SerialCall {
			foundSerialRand = true
		}
	}
	if !foundSerialRand {
		t.Error("fn2: rand loop should stay serial")
	}
	// fn3: everything unlocked.
	r = study(t, callSrc, Config{Model: PDOALL, Fn: 3})
	for _, lr := range r.Loops {
		if lr.Reason == SerialCall {
			t.Errorf("fn3: loop %s still serialized by calls", lr.ID)
		}
	}
}

// stackSrc: each iteration calls a helper that fills a local scratch array.
// Under fn2 the reused stack frames must not read as conflicts (§II-E).
const stackSrc = `
const N = 128;
var out [N]int;
func scratch_work(seed int) int {
	var buf [8]int;
	var j int;
	for (j = 0; j < 8; j = j + 1) { buf[j] = seed + j; }
	var s int = 0;
	for (j = 0; j < 8; j = j + 1) { s = s + buf[j] * buf[j]; }
	return s;
}
func main() int {
	var i int;
	for (i = 0; i < N; i = i + 1) {
		out[i] = scratch_work(i);
	}
	return out[N-1];
}`

func TestEndToEndCactusStack(t *testing.T) {
	r := study(t, stackSrc, Config{Model: PDOALL, Reduc: 1, Dep: 2, Fn: 2})
	var outer *LoopReport
	for i := range r.Loops {
		if strings.HasPrefix(r.Loops[i].ID, "main:") {
			outer = &r.Loops[i]
		}
	}
	if outer == nil {
		t.Fatalf("outer loop missing: %+v", r.Loops)
	}
	if !outer.Parallel {
		t.Errorf("outer loop serialized (%s): stack frames must be iteration-private", outer.Reason)
	}
	if s := r.Speedup(); s < 5 {
		t.Errorf("speedup = %.2f, want large", s)
	}
}

func TestReportString(t *testing.T) {
	r := study(t, doallSrc, Config{Model: DOALL})
	s := r.String()
	for _, want := range []string{"DOALL", "speedup", "coverage", "parallel"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

// TestDeterminism: identical runs produce identical reports.
func TestDeterminism(t *testing.T) {
	a := study(t, dep1Src, BestHELIX())
	b := study(t, dep1Src, BestHELIX())
	if a.SerialCost != b.SerialCost || a.ParallelCost != b.ParallelCost || a.CoveredTicks != b.CoveredTicks {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

// TestAblationHelixDelta: with the gap-amortized delta variant (not the
// paper's formula), HELIX becomes strictly more optimistic and the
// rare-conflict kernel stops preferring PDOALL — evidence for which formula
// the paper implemented (EXPERIMENTS.md, deviation 4).
func TestAblationHelixDelta(t *testing.T) {
	// Ring-buffer dependence at a fixed distance of 4 iterations: the
	// read lands early, the write late, and no adjacent-iteration
	// conflict ever manifests, so the two delta formulas diverge by ~4x.
	src := `
const N = 2000;
var ring [8]int;
var outv [N]int;
func main() int {
	var i int;
	for (i = 0; i < 8; i = i + 1) { ring[i] = i + 1; }
	for (i = 0; i < N; i = i + 1) {
		var x int = ring[(i + 4) % 8];
		var k int;
		for (k = 0; k < 10; k = k + 1) { x = (x * 3 + k) % 997; }
		outv[i] = x;
		ring[i % 8] = x;
	}
	return ring[3];
}`
	info, err := AnalyzeSource("ablate", src)
	if err != nil {
		t.Fatal(err)
	}
	paper, err := Run(info, Config{Model: HELIX, Reduc: 1, Dep: 1, Fn: 2}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	amort, err := Run(info, Config{Model: HELIX, Reduc: 1, Dep: 1, Fn: 2, AmortizeHelixDelta: true}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if amort.Speedup() < paper.Speedup() {
		t.Errorf("amortized delta (%.2f) should never be slower than the paper formula (%.2f)",
			amort.Speedup(), paper.Speedup())
	}
	if amort.Speedup() < paper.Speedup()*1.5 {
		t.Errorf("ablation effect too small on rare-late-update loop: paper %.2f vs amortized %.2f",
			paper.Speedup(), amort.Speedup())
	}
}

// TestLargeFrameAllocation: a frame of a million words grows the guest
// stack by its missing words in one step, so a BestHELIX run of it
// allocates about the frame's 8 MB. Grown a cell at a time, the stack's
// reallocations made the same run allocate 137.7 MB.
func TestLargeFrameAllocation(t *testing.T) {
	info, err := AnalyzeSource("frame", `
func main() int {
	var a [1000000]int;
	a[999999] = 7;
	return a[999999] + a[0];
}`)
	if err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	if _, err := Run(info, BestHELIX(), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	grew := ms.TotalAlloc - before
	t.Logf("a run with a 1,000,000-word frame allocated %.1f MB", float64(grew)/1e6)
	if grew > 16<<20 {
		t.Errorf("a run with a 1,000,000-word frame allocated %d bytes, want at most 16 MiB", grew)
	}
}
