package bench

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"loopapalooza/internal/core"
)

// TestFanoutDifferentialOracle is the acceptance oracle of the run-once
// layer: for every benchmark of the suite, MultiRun at every width AND a
// recorded-trace replay must produce Reports bit-identical to per-config
// core.Run, across the DOALL/PDOALL/HELIX oracle grid. The traces MultiRun
// records must be byte-identical to Run's.
func TestFanoutDifferentialOracle(t *testing.T) {
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
			// Reference: one isolated execution per configuration,
			// recording the trace alongside the first.
			var trace bytes.Buffer
			want := make([]*core.Report, len(cfgs))
			for i, cfg := range cfgs {
				opts := core.RunOptions{}
				if i == 0 {
					opts.Trace = &trace
				}
				if want[i], err = core.Run(info, cfg, opts); err != nil {
					t.Fatalf("%s: %v", cfg, err)
				}
			}
			check := func(kind string, got []*core.Report, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", kind, err)
				}
				for i := range cfgs {
					if err := core.CompareReports(want[i], got[i]); err != nil {
						t.Errorf("%s/%s: %v", kind, cfgs[i], err)
					}
				}
			}
			for _, p := range []int{1, 2, runtime.NumCPU(), 64} {
				var got bytes.Buffer
				par, err := core.MultiRun(info, cfgs, core.RunOptions{Parallelism: p, Trace: &got})
				check(fmt.Sprintf("p%d", p), par, err)
				if !bytes.Equal(trace.Bytes(), got.Bytes()) {
					t.Errorf("p%d: recorded trace differs from Run's (%d vs %d bytes)", p, got.Len(), trace.Len())
				}
			}
			rep, err := core.ReplayTraceMulti(b.Name, info, cfgs, core.RunOptions{}, bytes.NewReader(trace.Bytes()))
			check("replay", rep, err)
		})
	}
}

// TestFanoutRaceStress feeds ≥8 concurrent engines from one execution on
// the kernels with the densest event streams. Run under -race (make race)
// this is the data-race gate for the worker pool.
func TestFanoutRaceStress(t *testing.T) {
	cfgs := append(core.PaperConfigs(), core.BestPDOALL(), core.BestHELIX())
	if len(cfgs) < 8 {
		t.Fatalf("stress needs ≥8 engines, have %d", len(cfgs))
	}
	for _, name := range []string{"181.mcf", "183.equake", "aifirf"} {
		b := ByName(name)
		if b == nil {
			t.Fatalf("benchmark %s not registered", name)
		}
		info, err := b.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		// One worker per class, then the pool shape with shared workers:
		// every engine class reads the same sealed chunks, from fewer
		// goroutines at p=2.
		for _, p := range []int{64, 2} {
			reps, err := core.MultiRun(info, cfgs, core.RunOptions{Parallelism: p})
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			if len(reps) != len(cfgs) {
				t.Fatalf("%s p=%d: %d reports, want %d", name, p, len(reps), len(cfgs))
			}
		}
	}
}

// sweepBenches is a small cross-suite slice for harness-level tests.
func sweepBenches(t *testing.T) []*Benchmark {
	t.Helper()
	var out []*Benchmark
	for _, name := range []string{"181.mcf", "164.gzip", "aifirf", "183.equake"} {
		b := ByName(name)
		if b == nil {
			t.Fatalf("benchmark %s not registered", name)
		}
		out = append(out, b)
	}
	return out
}

// TestHarnessFanoutDedup: a sweep executes each benchmark once regardless
// of configuration count, produces cells identical to per-config core.Run,
// and a follow-up sweep only executes the genuinely new cells.
func TestHarnessFanoutDedup(t *testing.T) {
	benches := sweepBenches(t)
	cfgs := []core.Config{{Model: core.DOALL}, core.BestPDOALL(), core.BestHELIX()}

	fan := NewHarness()
	got := fan.Sweep(context.Background(), benches, cfgs)
	if len(got.Cells) != len(benches)*len(cfgs) {
		t.Fatalf("cell count %d, want %d", len(got.Cells), len(benches)*len(cfgs))
	}
	for i, g := range got.Cells {
		b, cfg := benches[i/len(cfgs)], cfgs[i%len(cfgs)]
		if g.Bench != b.Name || g.Config != cfg {
			t.Fatalf("cell %d order diverged: %s/%s, want %s/%s", i, g.Bench, g.Config, b.Name, cfg)
		}
		info, err := b.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		want, werr := core.Run(info, cfg, core.RunOptions{})
		if (g.Err == nil) != (werr == nil) {
			t.Fatalf("cell %d error divergence: %v vs %v", i, g.Err, werr)
		}
		if g.Err == nil {
			if err := core.CompareReports(want, g.Report); err != nil {
				t.Errorf("cell %s/%s: %v", g.Bench, g.Config, err)
			}
		}
	}

	st := fan.Stats()
	wantStats := Stats{
		Executions: int64(len(benches)),
		Cells:      int64(len(benches) * len(cfgs)),
		Saved:      int64(len(benches) * (len(cfgs) - 1)),
	}
	if st != wantStats {
		t.Errorf("fan-out stats = %+v, want %+v", st, wantStats)
	}

	// A second sweep adding one config re-executes each benchmark once for
	// just the new cell; the cached cells are served without running.
	more := append(append([]core.Config(nil), cfgs...), core.Config{Model: core.PDOALL})
	fan.Sweep(context.Background(), benches, more)
	st2 := fan.Stats()
	if st2.Executions != st.Executions+int64(len(benches)) {
		t.Errorf("second sweep executions = %d, want %d (one per benchmark for the new config)",
			st2.Executions, st.Executions+int64(len(benches)))
	}
	if st2.Cells != st.Cells+int64(len(benches)) {
		t.Errorf("second sweep cells = %d, want %d", st2.Cells, st.Cells+int64(len(benches)))
	}
}

// TestHarnessFanoutMixedValidity: an invalid configuration in the sweep
// grid fails its own cells with the validation error without poisoning the
// valid cells that share the execution.
func TestHarnessFanoutMixedValidity(t *testing.T) {
	benches := sweepBenches(t)[:2]
	bad := core.Config{Model: core.DOALL, Dep: 42}
	cfgs := []core.Config{{Model: core.DOALL}, bad, core.BestPDOALL()}
	sr := NewHarness().Sweep(context.Background(), benches, cfgs)
	for _, c := range sr.Cells {
		if c.Config == bad {
			if c.Err == nil || c.Outcome != core.OutcomeError {
				t.Errorf("%s/%s: err = %v, want validation failure", c.Bench, c.Config, c.Err)
			}
		} else if c.Err != nil {
			t.Errorf("%s/%s: %v, want success beside the invalid cell", c.Bench, c.Config, c.Err)
		}
	}
}

// TestHarnessTraceDir: a sweep with TraceDir records one replayable trace
// per benchmark, and replaying it reproduces the sweep's own reports.
func TestHarnessTraceDir(t *testing.T) {
	dir := t.TempDir()
	benches := sweepBenches(t)[:2]
	cfgs := []core.Config{{Model: core.DOALL}, core.BestHELIX()}
	h := NewHarnessWith(HarnessOptions{TraceDir: dir})
	sr := h.Sweep(context.Background(), benches, cfgs)
	if err := sr.Err(); err != nil {
		t.Fatal(err)
	}
	if st := h.Stats(); st.Traces != int64(len(benches)) {
		t.Fatalf("traces recorded = %d, want %d", st.Traces, len(benches))
	}
	for bi, b := range benches {
		path := filepath.Join(dir, TraceFileName(b.Name, b.Source, core.RunOptions{}))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("trace missing: %v", err)
		}
		info, err := b.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		for ci, cfg := range cfgs {
			rep, err := core.ReplayTrace(b.Name, info, cfg, core.RunOptions{}, bytes.NewReader(data))
			if err != nil {
				t.Fatalf("%s/%s: replay: %v", b.Name, cfg, err)
			}
			if err := core.CompareReports(sr.Cells[bi*len(cfgs)+ci].Report, rep); err != nil {
				t.Errorf("%s/%s: %v", b.Name, cfg, err)
			}
		}
	}
}

// TestReportMissRecordsTrace: a Report miss is a batch of one, so a
// TraceDir harness records its execution as it does a sweep's, and the
// trace replays to the same report.
func TestReportMissRecordsTrace(t *testing.T) {
	dir := t.TempDir()
	b := sweepBenches(t)[2]
	cfg := core.BestHELIX()
	h := NewHarnessWith(HarnessOptions{TraceDir: dir})
	rep, err := h.Report(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := h.Stats(); st.Traces != 1 || st.Executions != 1 {
		t.Fatalf("stats = %+v, want 1 execution and 1 trace", st)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.lptrace"))
	if err != nil || len(files) != 1 {
		t.Fatalf("trace files = %v (%v), want 1", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	info, err := b.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.ReplayTrace(b.Name, info, cfg, core.RunOptions{}, bytes.NewReader(data))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := core.CompareReports(rep, got); err != nil {
		t.Error(err)
	}
}
