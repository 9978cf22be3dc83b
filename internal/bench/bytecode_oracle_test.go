package bench

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"

	"loopapalooza/internal/core"
)

// TestBytecodeDifferentialOracle is the acceptance gate of the bytecode
// VM: every benchmark of the suite, under the DOALL/PDOALL/HELIX oracle
// grid, must produce Reports bit-identical to the tree-walking
// interpreter — through the plain Run path, MultiRun inline and across
// the worker pool, and a recorded-trace replay. Any divergence in
// instruction semantics, tick accounting, loop-event placement, or memory
// behavior shows up as a report diff.
func TestBytecodeDifferentialOracle(t *testing.T) {
	benchmarks := All()
	if len(benchmarks) == 0 {
		t.Fatal("no registered benchmarks")
	}
	cfgs := oracleConfigs(testing.Short())
	for _, b := range benchmarks {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			info, err := b.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			// Reference: the tree-walker, one isolated execution per
			// configuration, recording its event trace alongside the first.
			var twTrace bytes.Buffer
			want := make([]*core.Report, len(cfgs))
			for i, cfg := range cfgs {
				var trace io.Writer
				if i == 0 {
					trace = &twTrace
				}
				if want[i], err = treewalkRun(info, cfg, 0, trace); err != nil {
					t.Fatalf("%s: treewalk: %v", cfg, err)
				}
			}
			check := func(kind string, got []*core.Report, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", kind, err)
				}
				for i := range cfgs {
					if !reflect.DeepEqual(want[i], got[i]) {
						t.Errorf("%s/%s: report diverges from treewalk\ntreewalk: %v\nbytecode: %v",
							kind, cfgs[i], want[i], got[i])
					}
				}
			}
			// The bytecode VM through every execution path.
			var bcTrace bytes.Buffer
			direct := make([]*core.Report, len(cfgs))
			for i, cfg := range cfgs {
				opts := core.RunOptions{}
				if i == 0 {
					opts.Trace = &bcTrace
				}
				if direct[i], err = core.Run(info, cfg, opts); err != nil {
					t.Fatalf("%s: bytecode: %v", cfg, err)
				}
			}
			check("direct", direct, nil)
			for _, p := range []int{1, 2, runtime.NumCPU(), 64} {
				multi, err := core.MultiRun(info, cfgs, core.RunOptions{Parallelism: p})
				check(fmt.Sprintf("multirun-p%d", p), multi, err)
			}
			// A trace recorded under the bytecode engine replays to the
			// treewalk reports — the binary event streams themselves are
			// interchangeable.
			rep, err := core.ReplayTraceMulti(b.Name, info, cfgs,
				core.RunOptions{}, bytes.NewReader(bcTrace.Bytes()))
			check("replay-bytecode-trace", rep, err)
			if !bytes.Equal(twTrace.Bytes(), bcTrace.Bytes()) {
				t.Errorf("binary event traces differ between engines (%d vs %d bytes)",
					twTrace.Len(), bcTrace.Len())
			}
		})
	}
}

// TestBytecodeBudgetExhaustionParity starves every benchmark of steps and
// requires both engines to fail at the same step with the same error text
// and taxonomy outcome. The step budgets deliberately straddle loop
// boundaries so the trip lands mid-iteration, mid-call, and mid-prologue
// across the suite.
func TestBytecodeBudgetExhaustionParity(t *testing.T) {
	benchmarks := All()
	if testing.Short() {
		benchmarks = benchmarks[:min(8, len(benchmarks))]
	}
	cfg := core.Config{Model: core.HELIX, Reduc: 1, Dep: 2, Fn: 2}
	for _, b := range benchmarks {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			info, err := b.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			for _, budget := range []int64{1, 7, 100, 4097, 50_000} {
				tw, errT := treewalkRun(info, cfg, budget, nil)
				bc, errB := core.Run(info, cfg, core.RunOptions{MaxSteps: budget})
				if (errT == nil) != (errB == nil) {
					t.Fatalf("budget %d: failure divergence: treewalk=%v bytecode=%v", budget, errT, errB)
				}
				if errT != nil {
					if !errors.Is(errB, core.ErrStepLimit) {
						t.Fatalf("budget %d: bytecode error outside taxonomy: %v", budget, errB)
					}
					if errT.Error() != errB.Error() {
						t.Fatalf("budget %d: error text divergence:\ntreewalk: %v\nbytecode: %v",
							budget, errT, errB)
					}
					continue
				}
				if !reflect.DeepEqual(tw, bc) {
					t.Errorf("budget %d: reports diverge", budget)
				}
			}
		})
	}
}

// TestBytecodeTrapParity runs trap-raising programs under both engines
// and requires identical runtime-error text and outcome classification.
func TestBytecodeTrapParity(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"div-zero-in-loop", `
func main() int {
	var acc int = 0;
	for (var i int = 0; i < 10; i = i + 1) {
		acc = acc + 100 / (5 - i);
	}
	return acc;
}`},
		{"null-load", `
func main() int {
	var p *int;
	return *p;
}`},
		{"null-store-in-call", `
func poke(p *int) int { *p = 1; return 0; }
func main() int {
	var a [4]int;
	var s int = 0;
	for (var i int = 0; i < 4; i = i + 1) { a[i] = i; s = s + a[i]; }
	var q *int;
	return s + poke(q);
}`},
		{"rem-zero", `
func main() int {
	var m int = 3;
	for (var i int = 0; i < 8; i = i + 1) { m = m - 1; }
	return 42 % (m + 5);
}`},
	}
	cfg := core.Config{Model: core.PDOALL, Reduc: 1, Dep: 2, Fn: 2}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			info, err := core.AnalyzeSource(tc.name, tc.src)
			if err != nil {
				t.Fatal(err)
			}
			_, errT := treewalkRun(info, cfg, 0, nil)
			_, errB := core.Run(info, cfg, core.RunOptions{})
			if errT == nil || errB == nil {
				t.Fatalf("expected a trap: treewalk=%v bytecode=%v", errT, errB)
			}
			if !errors.Is(errB, core.ErrRuntime) {
				t.Fatalf("bytecode error outside taxonomy: %v", errB)
			}
			if errT.Error() != errB.Error() {
				t.Fatalf("error text divergence:\ntreewalk: %v\nbytecode: %v", errT, errB)
			}
			if core.Classify(errT) != core.Classify(errB) {
				t.Fatalf("outcome divergence: %v vs %v", core.Classify(errT), core.Classify(errB))
			}
		})
	}
}
