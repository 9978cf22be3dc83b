package lang

import (
	"errors"
	"strings"
	"testing"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/diag"
	"loopapalooza/internal/ir"
	"loopapalooza/internal/lang/ast"
)

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := Compile("test", src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return m
}

// TestCompileAndAnalyzeSumLoop runs the full front-end + analysis pipeline on
// a canonical reduction loop and checks the loop classification end to end.
func TestCompileAndAnalyzeSumLoop(t *testing.T) {
	m := compile(t, `
const N = 32;
var tab [N]int;
func main() int {
	var s int = 0;
	for (var i int = 0; i < N; i = i + 1) {
		s = s + tab[i];
	}
	return s;
}`)
	info, err := analysis.AnalyzeModule(m)
	if err != nil {
		t.Fatalf("AnalyzeModule: %v", err)
	}
	if len(info.Loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(info.Loops))
	}
	lm := info.Loops[0]
	if len(lm.Computable) != 1 {
		t.Errorf("computable = %d, want 1 (i)", len(lm.Computable))
	}
	if len(lm.Reductions) != 1 {
		t.Errorf("reductions = %d, want 1 (s)", len(lm.Reductions))
	}
	if len(lm.NonComputable) != 0 {
		t.Errorf("non-computable = %d, want 0", len(lm.NonComputable))
	}
	if lm.HasCall {
		t.Error("loop should not contain calls")
	}
}

// TestCompilePointerChase: x = tab[x] must be a non-computable register LCD.
func TestCompilePointerChase(t *testing.T) {
	m := compile(t, `
const N = 64;
var next [N]int;
func main() int {
	var x int = 0;
	var i int;
	for (i = 0; i < 100; i = i + 1) {
		x = next[x];
	}
	return x;
}`)
	info, err := analysis.AnalyzeModule(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Loops) != 1 {
		t.Fatalf("loops = %d", len(info.Loops))
	}
	lm := info.Loops[0]
	if len(lm.NonComputable) != 1 {
		t.Errorf("non-computable = %d, want 1 (x)", len(lm.NonComputable))
	}
	if len(lm.Observed) != 1 || len(lm.ObservedLatch) != 1 {
		t.Errorf("observed = %d/%d, want 1/1", len(lm.Observed), len(lm.ObservedLatch))
	}
}

// TestCompileCallClassification: loops calling pure vs I/O functions.
func TestCompileCallClassification(t *testing.T) {
	m := compile(t, `
var acc int;
func square(x int) int { return x * x; }
func log_it(x int) { print_i64(x); }
func main() int {
	var i int;
	for (i = 0; i < 10; i = i + 1) {
		acc = acc + square(i);
	}
	for (i = 0; i < 10; i = i + 1) {
		log_it(i);
	}
	return acc;
}`)
	info, err := analysis.AnalyzeModule(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(info.Loops))
	}
	var pureLoop, ioLoop *analysis.LoopMeta
	for _, lm := range info.Loops {
		if lm.HasUnsafeOrIOCall {
			ioLoop = lm
		} else {
			pureLoop = lm
		}
	}
	if pureLoop == nil || ioLoop == nil {
		t.Fatal("expected one pure-call loop and one IO-call loop")
	}
	if !pureLoop.HasCall || pureLoop.HasNonPureCall {
		t.Error("square(i) loop should have only pure calls")
	}
	if !ioLoop.HasNonPureCall {
		t.Error("log_it loop should have non-pure calls")
	}
}

// TestCompileNestedLoops: matrix multiply produces a depth-3 nest with
// computable IVs everywhere.
func TestCompileNestedLoops(t *testing.T) {
	m := compile(t, `
const N = 8;
var a [64]float;
var b [64]float;
var c [64]float;
func main() int {
	var i int; var j int; var k int;
	for (i = 0; i < N; i = i + 1) {
		for (j = 0; j < N; j = j + 1) {
			var s float = 0.0;
			for (k = 0; k < N; k = k + 1) {
				s = s + a[i*N+k] * b[k*N+j];
			}
			c[i*N+j] = s;
		}
	}
	return 0;
}`)
	info, err := analysis.AnalyzeModule(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Loops) != 3 {
		t.Fatalf("loops = %d, want 3", len(info.Loops))
	}
	depths := map[int]int{}
	for _, lm := range info.Loops {
		depths[lm.Loop.Depth]++
		if len(lm.NonComputable) != 0 {
			t.Errorf("loop %s has %d non-computable LCDs, want 0", lm.ID(), len(lm.NonComputable))
		}
	}
	if depths[1] != 1 || depths[2] != 1 || depths[3] != 1 {
		t.Errorf("depths = %v, want one loop each at 1,2,3", depths)
	}
	// The innermost loop carries the s-reduction.
	found := false
	for _, lm := range info.Loops {
		if lm.Loop.Depth == 3 && len(lm.Reductions) == 1 {
			found = true
		}
	}
	if !found {
		t.Error("innermost loop should carry the float-add reduction")
	}
}

// TestCompileWhileWithBreakContinue exercises multi-latch canonicalization
// through the whole pipeline.
func TestCompileWhileWithBreakContinue(t *testing.T) {
	m := compile(t, `
func main() int {
	var i int = 0;
	var s int = 0;
	while (i < 100) {
		i = i + 1;
		if (i % 3 == 0) { continue; }
		if (i > 50) { break; }
		s = s + i;
	}
	return s;
}`)
	info, err := analysis.AnalyzeModule(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(info.Loops))
	}
	l := info.Loops[0].Loop
	if l.Latch == nil || l.Preheader == nil {
		t.Error("while loop not canonicalized")
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("module invalid: %v", err)
	}
}

func TestCompileGlobalPointerVars(t *testing.T) {
	m := compile(t, `
var buf [16]int;
var cur *int;
func main() int {
	cur = buf;
	*cur = 5;
	cur = cur + 1;
	*cur = 7;
	return buf[0] + buf[1];
}`)
	if _, err := analysis.AnalyzeModule(m); err != nil {
		t.Fatal(err)
	}
}

func TestCompileRejectsBadPrograms(t *testing.T) {
	bad := []string{
		`func main() int { return x; }`,
		`func main() int { `,
		`func main() bool { return 1; }`,
	}
	for _, src := range bad {
		if _, err := Compile("bad", src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

// TestCompileICERecovery: a panic escaping a front-end stage becomes a
// *diag.ICE naming the stage — Compile never exits via panic.
func TestCompileICERecovery(t *testing.T) {
	orig := checkFn
	checkFn = func(f *ast.File) error { panic("injected sema bug") }
	defer func() { checkFn = orig }()

	src := "func main() int { return 0; }\n"
	m, err := Compile("ice.lpc", src)
	if m != nil || err == nil {
		t.Fatalf("Compile = %v, %v; want nil module and ICE", m, err)
	}
	var ice *diag.ICE
	if !errors.As(err, &ice) {
		t.Fatalf("error is %T, want *diag.ICE: %v", err, err)
	}
	if ice.Stage != "sema" {
		t.Errorf("Stage = %q, want sema", ice.Stage)
	}
	if ice.Source != src {
		t.Errorf("Source reproducer not captured")
	}
	if !strings.Contains(ice.Error(), "internal compiler error in sema: injected sema bug") {
		t.Errorf("Error() = %q", ice.Error())
	}
	if ice.Stack == "" {
		t.Error("no stack captured for triage")
	}
}

// TestCompileUserErrorsAreNotICE: ordinary front-end faults stay diag.List.
func TestCompileUserErrorsAreNotICE(t *testing.T) {
	_, err := Compile("bad.lpc", "func f() int { return q; }\n")
	if err == nil {
		t.Fatal("no error")
	}
	var ice *diag.ICE
	if errors.As(err, &ice) {
		t.Fatalf("user error reported as ICE: %v", err)
	}
	var l diag.List
	if !errors.As(err, &l) {
		t.Fatalf("error is %T, want diag.List", err)
	}
}

// TestCompileDistinctValueNames: value names are a hint plus a sequence
// number, and a hint may end in digits. Here the 21st name is hint "a1"
// after 20 names of hint "a12"; joined without a separator both read
// a121, which the verifier rejected as a duplicate of a valid program.
func TestCompileDistinctValueNames(t *testing.T) {
	src := "func main() int {\n\tvar a12 int = 1;\n" +
		strings.Repeat("\ta12 = a12;\n", 19) +
		"\tvar a1 int = 2;\n\treturn a1 + a12;\n}\n"
	m := compile(t, src)
	if _, err := analysis.AnalyzeModule(m); err != nil {
		t.Fatalf("AnalyzeModule: %v", err)
	}
}
