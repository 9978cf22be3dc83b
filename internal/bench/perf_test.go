package bench

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/core"
)

// sweepConfigs is the macro-benchmark configuration grid: one config per
// execution model at permissive flags, the shape of a figure regeneration.
func sweepConfigs() []core.Config {
	return []core.Config{
		{Model: core.DOALL, Reduc: 1, Dep: 0, Fn: 2},
		{Model: core.PDOALL, Reduc: 1, Dep: 2, Fn: 2},
		{Model: core.HELIX, Reduc: 1, Dep: 2, Fn: 2},
	}
}

// BenchmarkSweepSuite is the end-to-end macro benchmark: a full sweep of
// the EEMBC suite across the model grid, through the fault-isolated
// harness (fresh per op, so every op re-runs every cell; the per-benchmark
// analysis once-cells are process-wide and shared, as in production
// figure regeneration). Sub-benchmarks select the dependence tracker.
func BenchmarkSweepSuite(b *testing.B) {
	benches := BySuite(SuiteEEMBC)
	if len(benches) == 0 {
		b.Fatal("no EEMBC benchmarks registered")
	}
	// Warm the analysis once-cells so both sub-benchmarks measure pure
	// sweep execution.
	for _, bm := range benches {
		if _, err := bm.Analyze(); err != nil {
			b.Fatal(err)
		}
	}
	for _, kind := range []core.TrackerKind{core.TrackerShadow, core.TrackerLegacyMap} {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h := NewHarnessWith(HarnessOptions{Run: core.RunOptions{Tracker: kind}})
				sr := h.Sweep(context.Background(), benches, sweepConfigs())
				if sr.OK() != len(benches)*len(sweepConfigs()) {
					b.Fatalf("sweep failures: %s", sr.Summary())
				}
			}
		})
	}
}

// BenchmarkSweepFanout measures the full fourteen-configuration paper-grid
// sweep of the EEMBC suite through the run-once fan-out: one
// interpretation per benchmark feeding every configuration's engine.
// BENCH_PR5.json's fanout_vs_perconfig table preserves its ratio against
// the one-execution-per-cell baseline.
func BenchmarkSweepFanout(b *testing.B) {
	benches := BySuite(SuiteEEMBC)
	if len(benches) == 0 {
		b.Fatal("no EEMBC benchmarks registered")
	}
	for _, bm := range benches {
		if _, err := bm.Analyze(); err != nil {
			b.Fatal(err)
		}
	}
	cfgs := core.PaperConfigs()
	b.Run("fanout", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sr := NewHarness().Sweep(context.Background(), benches, cfgs)
			if sr.OK() != len(benches)*len(cfgs) {
				b.Fatalf("sweep failures: %s", sr.Summary())
			}
		}
	})
}

// BenchmarkSweepParallel measures the cross-core worker pool against
// inline replay on the same run-once sweep: the full paper-grid sweep of
// the EEMBC suite at Parallelism 1 (every engine replayed on the
// interpreting goroutine) versus one pool worker per CPU (engine classes
// sharded by class affinity, all reading the shared span summaries).
// Reports are bit-identical at every width — the differential oracles pin
// that — so this pair isolates the multi-core scaling win
// (BENCH_PR12.json's parallel_vs_serial table).
func BenchmarkSweepParallel(b *testing.B) {
	benches := BySuite(SuiteEEMBC)
	if len(benches) == 0 {
		b.Fatal("no EEMBC benchmarks registered")
	}
	for _, bm := range benches {
		if _, err := bm.Analyze(); err != nil {
			b.Fatal(err)
		}
	}
	cfgs := core.PaperConfigs()
	for _, mode := range []struct {
		name string
		p    int
	}{{"serial", 1}, {"parallel", runtime.NumCPU()}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h := NewHarnessWith(HarnessOptions{Run: core.RunOptions{Parallelism: mode.p}})
				sr := h.Sweep(context.Background(), benches, cfgs)
				if sr.OK() != len(benches)*len(cfgs) {
					b.Fatalf("sweep failures: %s", sr.Summary())
				}
			}
		})
	}
}

// BenchmarkTraceReplay measures trace replay, the path of lpd's trace
// tier and lpbench -trace-dir: set-up records the event trace of every
// registered kernel once, and each op replays all of them under the
// fourteen paper configurations through core.ReplayTraceMulti — decoder
// and engines, no interpretation. The trace-bytes metric is the traces'
// total encoded size, a deterministic census that benchjson -compare
// gates at every iteration count, so the format size is pinned by
// benchsmoke.
func BenchmarkTraceReplay(b *testing.B) {
	benches := All()
	cfgs := core.PaperConfigs()
	infos := make([]*analysis.ModuleInfo, len(benches))
	traces := make([][]byte, len(benches))
	var total int
	for i, bm := range benches {
		info, err := bm.Analyze()
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := core.MultiRun(info, cfgs, core.RunOptions{Trace: &buf}); err != nil {
			b.Fatalf("recording %s: %v", bm.Name, err)
		}
		infos[i], traces[i] = info, buf.Bytes()
		total += buf.Len()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, bm := range benches {
			if _, err := core.ReplayTraceMulti(bm.Name, infos[j], cfgs, core.RunOptions{}, bytes.NewReader(traces[j])); err != nil {
				b.Fatalf("replaying %s: %v", bm.Name, err)
			}
		}
	}
	b.ReportMetric(float64(total), "trace-bytes")
}
