package bytecode

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/interp"
	"loopapalooza/internal/lang"
)

// recorder captures the full hook event stream as comparable strings. It
// copies everything out of the scratch slices the engines hand it.
type recorder struct {
	events []string
}

func (r *recorder) Tick(n int64) { r.events = append(r.events, fmt.Sprintf("tick %d", n)) }

func (r *recorder) EnterLoop(lm *analysis.LoopMeta, sp int64, init []interp.Val) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "enter %s sp=%d init=[", lm.ID(), sp)
	for _, v := range init {
		fmt.Fprintf(&sb, " %d:%#x", v.K, v.Bits())
	}
	sb.WriteString(" ]")
	r.events = append(r.events, sb.String())
}

func (r *recorder) IterLoop(lm *analysis.LoopMeta, sp int64, obs []interp.LCDObs) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "iter %s sp=%d obs=[", lm.ID(), sp)
	for _, o := range obs {
		fmt.Fprintf(&sb, " %d:%#x@%d", o.Val.K, o.Val.Bits(), o.DefTick)
	}
	sb.WriteString(" ]")
	r.events = append(r.events, sb.String())
}

func (r *recorder) ExitLoop(lm *analysis.LoopMeta) {
	r.events = append(r.events, "exit "+lm.ID())
}

func (r *recorder) Load(addr int64)  { r.events = append(r.events, fmt.Sprintf("load %#x", addr)) }
func (r *recorder) Store(addr int64) { r.events = append(r.events, fmt.Sprintf("store %#x", addr)) }

func analyze(t *testing.T, src string) *analysis.ModuleInfo {
	t.Helper()
	m, err := lang.Compile("t", src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := analysis.AnalyzeModule(m)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// runBoth executes main under both engines with recording hooks and full
// print capture, and requires bit-identical results, errors, output, and
// hook event streams.
func runBoth(t *testing.T, src string, cfg interp.Config) (interp.Result, error) {
	t.Helper()
	info := analyze(t, src)
	return runBothAnalyzed(t, info, cfg)
}

func runBothAnalyzed(t *testing.T, info *analysis.ModuleInfo, cfg interp.Config) (interp.Result, error) {
	t.Helper()
	twRec, vmRec := &recorder{}, &recorder{}
	var twOut, vmOut bytes.Buffer

	twCfg := cfg
	twCfg.Hooks, twCfg.Out = twRec, &twOut
	twRes, twErr := interp.New(info, twCfg).Run("main")

	prog, err := For(info)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	vmCfg := cfg
	vmCfg.Hooks, vmCfg.Out = vmRec, &vmOut
	vmRes, vmErr := NewVM(prog, vmCfg).Run("main")

	if (twErr == nil) != (vmErr == nil) {
		t.Fatalf("error divergence:\n  treewalk: %v\n  bytecode: %v", twErr, vmErr)
	}
	if twErr != nil && twErr.Error() != vmErr.Error() {
		t.Fatalf("error text divergence:\n  treewalk: %v\n  bytecode: %v", twErr, vmErr)
	}
	if twRes != vmRes {
		t.Fatalf("result divergence:\n  treewalk: %+v\n  bytecode: %+v", twRes, vmRes)
	}
	if twOut.String() != vmOut.String() {
		t.Fatalf("output divergence:\n  treewalk: %q\n  bytecode: %q", twOut.String(), vmOut.String())
	}
	if len(twRec.events) != len(vmRec.events) {
		t.Fatalf("event count divergence: treewalk %d, bytecode %d\nfirst treewalk: %v\nfirst bytecode: %v",
			len(twRec.events), len(vmRec.events), head(twRec.events, 12), head(vmRec.events, 12))
	}
	for i := range twRec.events {
		if twRec.events[i] != vmRec.events[i] {
			t.Fatalf("event %d divergence:\n  treewalk: %s\n  bytecode: %s\ncontext: %v vs %v",
				i, twRec.events[i], vmRec.events[i],
				head(twRec.events[max(0, i-3):], 6), head(vmRec.events[max(0, i-3):], 6))
		}
	}
	return vmRes, vmErr
}

func head(s []string, n int) []string {
	if len(s) > n {
		return s[:n]
	}
	return s
}

func TestVMLoopReduction(t *testing.T) {
	res, err := runBoth(t, `
func main() int {
	var a [64]int;
	var i int;
	var s int;
	for (i = 0; i < 64; i = i + 1) { a[i] = i * 3; }
	for (i = 0; i < 64; i = i + 1) { s = s + a[i]; }
	return s;
}`, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(64 * 63 / 2 * 3); res.Ret.I != want {
		t.Errorf("ret = %d, want %d", res.Ret.I, want)
	}
}

func TestVMNestedLoopsAndCalls(t *testing.T) {
	res, err := runBoth(t, `
func mix(a int, b int) int {
	if (a < b) { return b - a; }
	return a - b;
}
func main() int {
	var i int; var j int; var acc int;
	for (i = 0; i < 20; i = i + 1) {
		for (j = 0; j < 20; j = j + 1) {
			acc = acc + mix(i * j, acc % 97);
		}
	}
	return acc;
}`, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret.I == 0 {
		t.Error("expected nonzero accumulator")
	}
}

func TestVMLCDChain(t *testing.T) {
	// A true loop-carried dependence: s feeds the next iteration through a
	// non-affine recurrence, so IterLoop observations carry real payloads.
	if _, err := runBoth(t, `
func main() int {
	var s int = 7;
	var i int;
	for (i = 0; i < 100; i = i + 1) {
		s = (s * 31 + i) % 1000003;
	}
	return s;
}`, interp.Config{}); err != nil {
		t.Fatal(err)
	}
}

func TestVMFloatKernels(t *testing.T) {
	if _, err := runBoth(t, `
func main() float {
	var x [32]float;
	var i int;
	var s float;
	for (i = 0; i < 32; i = i + 1) { x[i] = float(i) * 0.5; }
	for (i = 0; i < 32; i = i + 1) { s = s + x[i] * x[i]; }
	return sqrt(s) + sin(s) * cos(s);
}`, interp.Config{}); err != nil {
		t.Fatal(err)
	}
}

func TestVMFloatNaNCompares(t *testing.T) {
	// 0/0 is NaN; the tree-walker's composed compares report gt/ge as true
	// on NaN operands, and the VM must reproduce that exactly.
	res, err := runBoth(t, `
func main() int {
	var zero float;
	var nan float = zero / zero;
	var r int;
	if (nan > 1.0)  { r = r + 1; }
	if (nan >= 1.0) { r = r + 10; }
	if (nan < 1.0)  { r = r + 100; }
	if (nan <= 1.0) { r = r + 1000; }
	if (nan == nan) { r = r + 10000; }
	if (nan != nan) { r = r + 100000; }
	return r;
}`, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret.I != 100011 {
		t.Errorf("NaN compare pattern = %d, want 100011", res.Ret.I)
	}
}

func TestVMPhiSwap(t *testing.T) {
	// Fibonacci's (a, b) = (b, a+b) is the classic parallel-move conflict:
	// the staged phi path must not let the first copy clobber the second's
	// source.
	res, err := runBoth(t, `
func main() int {
	var a int = 0;
	var b int = 1;
	var i int;
	for (i = 0; i < 30; i = i + 1) {
		var tmp int = a + b;
		a = b;
		b = tmp;
	}
	return a;
}`, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret.I != 832040 {
		t.Errorf("fib(30) = %d, want 832040", res.Ret.I)
	}
}

func TestVMRecursionAndDepthLimit(t *testing.T) {
	if _, err := runBoth(t, `
func fib(n int) int {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
func main() int { return fib(15); }`, interp.Config{}); err != nil {
		t.Fatal(err)
	}
	// Unbounded recursion trips the call-depth budget identically.
	_, err := runBoth(t, `
func down(n int) int { return down(n + 1); }
func main() int { return down(0); }`, interp.Config{})
	if err == nil || !strings.Contains(err.Error(), "budget 10000") {
		t.Errorf("want call-depth budget error, got %v", err)
	}
}

func TestVMBuiltinsAndPrints(t *testing.T) {
	if _, err := runBoth(t, `
func main() int {
	srand(42);
	var i int;
	var s int;
	for (i = 0; i < 10; i = i + 1) { s = s + rand() % 100; }
	print_i64(s);
	print_f64(pow(2.0, 10.0));
	print_i64(min(3, max(s, 7)));
	print_i64(abs(0 - s));
	return s;
}`, interp.Config{}); err != nil {
		t.Fatal(err)
	}
}

func TestVMHeapAndGlobals(t *testing.T) {
	if _, err := runBoth(t, `
var table [16]int;
var seed int = 3;
var scale float = 0.25;
func main() float {
	var p *int = alloc(32);
	var i int;
	for (i = 0; i < 32; i = i + 1) { p[i] = i + seed * (i % 4); }
	for (i = 0; i < 16; i = i + 1) { table[i] = p[i * 2]; }
	var s float;
	for (i = 0; i < 16; i = i + 1) { s = s + float(table[i]) * scale; }
	return s;
}`, interp.Config{}); err != nil {
		t.Fatal(err)
	}
}

func TestVMTrapParity(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"div-zero", `func main() int { var d int; return 7 / d; }`, "division by zero"},
		{"rem-zero", `func main() int { var d int; return 7 % d; }`, "remainder by zero"},
		{"null-load", `func main() int { var p *int; return *p; }`, "null pointer"},
		{"null-store", `func main() int { var p *int; *p = 1; return 0; }`, "null pointer"},
		{"unmapped", `
var a [4]int;
func main() int {
	var p *int = a;
	p = p + 1000000;
	return *p;
}`, "unmapped"},
		{"neg-alloc", `func main() int { var n int = 0 - 5; var p *int = alloc(n); return *p; }`, "negative"},
		{"stack-overflow", `
func grow(n int) int {
	var pad [4096]int;
	pad[0] = n;
	if (n <= 0) { return pad[0]; }
	return grow(n - 1) + pad[0];
}
func main() int { return grow(100000); }`, "stack overflow"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := runBoth(t, tc.src, interp.Config{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

func TestVMTrapInsideLoop(t *testing.T) {
	// The trap fires mid-iteration: both engines must agree on the step
	// count embedded in the error (same ticks charged up to the fault).
	_, err := runBoth(t, `
func main() int {
	var i int;
	var s int;
	for (i = 0; i < 100; i = i + 1) {
		s = s + 1000 / (50 - i);
	}
	return s;
}`, interp.Config{})
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("want division by zero, got %v", err)
	}
}

func TestVMStepLimitParity(t *testing.T) {
	src := `
func main() int {
	var i int;
	var s int;
	for (i = 0; i < 1000000; i = i + 1) { s = s + i * i; }
	return s;
}`
	// Sweep budgets so the limit trips at different instruction positions
	// (mid-block, on a phi copy, on a branch); the LimitError carries the
	// trip step, so any tick-accounting drift fails the text comparison.
	for _, budget := range []int64{1, 2, 3, 7, 50, 51, 52, 53, 54, 55, 500, 5001} {
		_, err := runBoth(t, src, interp.Config{MaxSteps: budget})
		if err == nil || !strings.Contains(err.Error(), "step limit") &&
			!strings.Contains(err.Error(), fmt.Sprint(budget)) {
			t.Errorf("budget %d: want step-limit error, got %v", budget, err)
		}
	}
}

func TestVMHeapExhaustionParity(t *testing.T) {
	_, err := runBoth(t, `
func main() int {
	var i int;
	var p *int;
	for (i = 0; i < 100000; i = i + 1) { p = alloc(1 << 20); }
	return *p;
}`, interp.Config{MaxHeapCells: 1 << 22})
	if err == nil || !strings.Contains(err.Error(), "heap exhausted") {
		t.Errorf("want heap exhaustion, got %v", err)
	}
}

func TestVMEarlyReturnExitsNestedLoops(t *testing.T) {
	if _, err := runBoth(t, `
func find(limit int) int {
	var i int; var j int;
	for (i = 0; i < 50; i = i + 1) {
		for (j = 0; j < 50; j = j + 1) {
			if (i * j > limit) { return i * 100 + j; }
		}
	}
	return 0 - 1;
}
func main() int { return find(1000); }`, interp.Config{}); err != nil {
		t.Fatal(err)
	}
}

func TestVMBreakAndContinue(t *testing.T) {
	if _, err := runBoth(t, `
func main() int {
	var i int; var s int;
	for (i = 0; i < 1000; i = i + 1) {
		if (i % 3 == 0) { continue; }
		if (i > 500) { break; }
		s = s + i;
	}
	return s;
}`, interp.Config{}); err != nil {
		t.Fatal(err)
	}
}

func TestVMWhileLoopLCDThroughMemory(t *testing.T) {
	if _, err := runBoth(t, `
var hist [8]int;
func main() int {
	var i int = 1;
	while (i < 512) {
		hist[i % 8] = hist[(i - 1) % 8] + i;
		i = i * 2;
	}
	return hist[7] + hist[0];
}`, interp.Config{}); err != nil {
		t.Fatal(err)
	}
}

func TestVMResetReproducesRun(t *testing.T) {
	info := analyze(t, `
func main() int {
	srand(7);
	var i int; var s int;
	for (i = 0; i < 50; i = i + 1) { s = s + rand() % 10; }
	return s;
}`)
	prog, err := For(info)
	if err != nil {
		t.Fatal(err)
	}
	vm := NewVM(prog, interp.Config{})
	first, err := vm.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		vm.Reset()
		again, err := vm.Run("main")
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("run %d after Reset: %+v, want %+v", i, again, first)
		}
	}
}

func TestVMResetZeroAllocSteadyState(t *testing.T) {
	info := analyze(t, `
func inner(x int) int { return x * x + 1; }
func main() int {
	var a [32]int;
	var i int; var s int;
	for (i = 0; i < 32; i = i + 1) { a[i] = inner(i); }
	for (i = 0; i < 32; i = i + 1) { s = s + a[i]; }
	return s;
}`)
	prog, err := For(info)
	if err != nil {
		t.Fatal(err)
	}
	vm := NewVM(prog, interp.Config{})
	if _, err := vm.Run("main"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		vm.Reset()
		if _, err := vm.Run("main"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Run allocates %v objects/op, want 0", allocs)
	}
}

func TestVMRunErrors(t *testing.T) {
	info := analyze(t, `func main() int { return 1; }`)
	prog, err := For(info)
	if err != nil {
		t.Fatal(err)
	}
	vm := NewVM(prog, interp.Config{})
	if _, err := vm.Run("nope"); err == nil || !strings.Contains(err.Error(), `no function "nope"`) {
		t.Errorf("want no-function error, got %v", err)
	}
	if _, err := vm.Run("main", interp.IntVal(1)); err == nil || !strings.Contains(err.Error(), "takes 0 args, got 1") {
		t.Errorf("want arity error, got %v", err)
	}
}

func TestForMemoizesCompilation(t *testing.T) {
	info := analyze(t, `func main() int { return 41 + 1; }`)
	p1, err := For(info)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := For(info)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("For recompiled instead of memoizing")
	}
}

func TestLoweringStats(t *testing.T) {
	info := analyze(t, `
func main() int {
	var a [64]int;
	var i int; var s int;
	for (i = 0; i < 64; i = i + 1) { a[i] = i; }
	for (i = 0; i < 64; i = i + 1) { s = s + a[i]; }
	return s;
}`)
	prog, err := For(info)
	if err != nil {
		t.Fatal(err)
	}
	if prog.StaticInsts() == 0 {
		t.Fatal("no instructions lowered")
	}
	counts := prog.OpCounts()
	if counts["store.idx"] == 0 {
		t.Errorf("expected fused addptr+store, got %v", counts)
	}
	if counts["br.lt.i"] == 0 && counts["br.ge.i"] == 0 {
		t.Errorf("expected fused compare+branch, got %v", counts)
	}
	if prog.FusedInsts() == 0 {
		t.Error("no superinstructions recorded")
	}
	if !strings.Contains(prog.Disasm(), "func @main") {
		t.Error("Disasm missing function header")
	}
}

func TestVMGlobalBudgetParity(t *testing.T) {
	// The global segment alone exceeds the memory budget: both engines
	// defer the fault to Run with identical text.
	_, err := runBoth(t, `
var huge [100000]int;
func main() int { return huge[0]; }`, interp.Config{MaxHeapCells: 1024})
	if err == nil || !strings.Contains(err.Error(), "globals exceed the memory budget") {
		t.Errorf("want global budget error, got %v", err)
	}
}

// TestVMUnwrittenCellsReadZero: memory holds words without kinds, so a
// global, heap or stack cell that was never written must read back as
// the zero of the kind its load names, on both engines and through each
// load opcode.
func TestVMUnwrittenCellsReadZero(t *testing.T) {
	cases := []struct {
		name, op, src string
		want          interp.Val
	}{
		{"float global", "load", `var g float; func main() float { return g; }`, interp.FloatVal(0)},
		{"float global array", "load.idx", `var g [4]float; func main() float { return g[3]; }`, interp.FloatVal(0)},
		{"allocf cell", "load.idx", `func main() float { var p *float = allocf(4); return p[2]; }`, interp.FloatVal(0)},
		{"float stack cell", "load.idx", `func main() float { var a [4]float; return a[1]; }`, interp.FloatVal(0)},
		{"int heap cell", "load", `func main() int { var p *int = alloc(4); return *p; }`, interp.IntVal(0)},
		{"int stack cell", "load.idx", `func main() int { var a [3]int; return a[2]; }`, interp.IntVal(0)},
		{"bool global", "load", `var b bool; func main() bool { return b; }`, interp.BoolVal(false)},
		{"pointer global", "load", `var q *float; func main() *float { return q; }`, interp.PtrVal(interp.NullAddr)},
		{"float global plus", "load.add.f", `var g float; func main() float { return g + 1.5; }`, interp.FloatVal(1.5)},
		{"int heap cell plus", "load.add.i", `func main() int { var p *int = alloc(2); return *p + 4; }`, interp.IntVal(4)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			info := analyze(t, c.src)
			prog, err := For(info)
			if err != nil {
				t.Fatal(err)
			}
			if prog.OpCounts()[c.op] == 0 {
				t.Fatalf("the program lowers to no %s: %v", c.op, prog.OpCounts())
			}
			res, err := runBothAnalyzed(t, info, interp.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Ret != c.want {
				t.Errorf("main() = %+v, want %+v", res.Ret, c.want)
			}
		})
	}
}

// TestNewVMGlobalBytesPerWord: NewVM lays out the global segment as
// 8-byte words, so a module with 100,000 global words costs at most 8.5
// bytes per word to set up (24.0 when each cell was an interp.Val).
func TestNewVMGlobalBytesPerWord(t *testing.T) {
	const words = 100000
	prog, err := For(analyze(t, fmt.Sprintf(`
var big [%d]int;
var scale float = 0.5;
func main() int { return big[7]; }`, words-1)))
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for range runs {
		vmSink = NewVM(prog, interp.Config{})
	}
	runtime.ReadMemStats(&ms)
	perWord := float64(ms.TotalAlloc-before) / runs / words
	t.Logf("NewVM: %.2f bytes per global word", perWord)
	if perWord > 8.5 {
		t.Errorf("NewVM allocates %.2f bytes per global word, want <= 8.5", perWord)
	}
}

// vmSink keeps TestNewVMGlobalBytesPerWord's VMs reachable.
var vmSink *VM
