package interp_test

import (
	"testing"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/bytecode"
	"loopapalooza/internal/interp"
	"loopapalooza/internal/lang"
)

// dispatchSrc is a small compute kernel exercising the interpreter's
// dispatch loop: integer and float arithmetic, memory traffic, calls, and
// nested loops — no I/O, so NopHooks measures raw dispatch cost.
const dispatchSrc = `
const N = 64;
var a [N]int;
var b [N]float;

func mix(x int, y int) int {
	return (x * 31 + y) % 8191;
}

func main() int {
	var acc int = 0;
	var f float = 0.0;
	var r int;
	for (r = 0; r < 200; r = r + 1) {
		var i int;
		for (i = 0; i < N; i = i + 1) {
			a[i] = mix(a[i], i + r);
			b[i] = b[i] * 0.5 + float(a[i]) * 0.25;
			acc = mix(acc, a[i]);
		}
		f = f + b[r % N];
	}
	return acc + int(f);
}
`

func dispatchInfo(b *testing.B) *analysis.ModuleInfo {
	b.Helper()
	m, err := lang.Compile("dispatch", dispatchSrc)
	if err != nil {
		b.Fatal(err)
	}
	info, err := analysis.AnalyzeModule(m)
	if err != nil {
		b.Fatal(err)
	}
	return info
}

func reportThroughput(b *testing.B, steps int64) {
	b.Helper()
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "instrs/sec")
	}
	b.ReportMetric(float64(steps)/float64(b.N), "instrs/run")
}

// BenchmarkInterpDispatch measures pure execution throughput of the
// bytecode VM with no instrumentation attached: one VM reused across runs
// via Reset, which the steady-state allocation test below pins at zero.
// The custom metric is dynamic IR instructions per second.
func BenchmarkInterpDispatch(b *testing.B) {
	info := dispatchInfo(b)

	b.Run("bytecode", func(b *testing.B) {
		prog, err := bytecode.For(info)
		if err != nil {
			b.Fatal(err)
		}
		vm := bytecode.NewVM(prog, interp.Config{})
		var steps int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			vm.Reset()
			res, err := vm.Run("main")
			if err != nil {
				b.Fatal(err)
			}
			steps += res.Steps
		}
		reportThroughput(b, steps)
	})
}

// TestDispatchSteadyStateAllocs pins the production configuration —
// a reused bytecode VM — at zero allocations per run: register frames,
// observation buffers, and the heap image all come from the VM's pools
// after the first run.
func TestDispatchSteadyStateAllocs(t *testing.T) {
	m, err := lang.Compile("dispatch", dispatchSrc)
	if err != nil {
		t.Fatal(err)
	}
	info, err := analysis.AnalyzeModule(m)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := bytecode.For(info)
	if err != nil {
		t.Fatal(err)
	}
	vm := bytecode.NewVM(prog, interp.Config{})
	// Warm the pools: the first run grows frames and scratch buffers.
	vm.Reset()
	if _, err := vm.Run("main"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		vm.Reset()
		if _, err := vm.Run("main"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state dispatch allocates %.1f times per run, want 0", allocs)
	}
}
