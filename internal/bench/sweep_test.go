package bench

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loopapalooza/internal/core"
	"loopapalooza/internal/interp"
)

// hookFunc is the shape of Benchmark.runHook: core.MultiRun's, minus the
// analysis.
type hookFunc = func([]core.Config, core.RunOptions) ([]*core.Report, error)

// fakeBench builds an unregistered benchmark whose execution is replaced
// by hook — the fault-injection seam of the sweep tests.
func fakeBench(name string, hook hookFunc) *Benchmark {
	return &Benchmark{
		Name:    name,
		Suite:   SuiteEEMBC,
		Modeled: "test fault injection",
		Source:  `func main() int { return 0; }`,
		runHook: hook,
	}
}

// okReports is a successful execution's reports, one per configuration.
func okReports(name string, cfgs []core.Config) []*core.Report {
	out := make([]*core.Report, len(cfgs))
	for i, cfg := range cfgs {
		out[i] = &core.Report{Benchmark: name, Config: cfg, SerialCost: 1000, ParallelCost: 100}
	}
	return out
}

// failing is a hook whose every execution fails with err.
func failing(err error) hookFunc {
	return func([]core.Config, core.RunOptions) ([]*core.Report, error) { return nil, err }
}

// runawayBench is a real LPC kernel that never terminates — only budgets
// stop it.
func runawayBench(name string) *Benchmark {
	return &Benchmark{
		Name:    name,
		Suite:   SuiteEEMBC,
		Modeled: "injected runaway loop",
		Source:  `func main() int { while (true) { } return 0; }`,
	}
}

func TestSweepIsolatesPanics(t *testing.T) {
	good := fakeBench("good", func(cfgs []core.Config, _ core.RunOptions) ([]*core.Report, error) {
		return okReports("good", cfgs), nil
	})
	bad := fakeBench("bad", func([]core.Config, core.RunOptions) ([]*core.Report, error) {
		panic("injected worker panic")
	})
	h := NewHarness()
	sr := h.Sweep(context.Background(), []*Benchmark{good, bad}, []core.Config{{Model: core.DOALL}})
	if len(sr.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(sr.Cells))
	}
	if sr.OK() != 1 || sr.Counts[core.OutcomePanic] != 1 {
		t.Fatalf("counts = %v, want 1 ok + 1 panic", sr.Counts)
	}
	var panicked *Cell
	for i := range sr.Cells {
		if sr.Cells[i].Bench == "bad" {
			panicked = &sr.Cells[i]
		}
	}
	if panicked == nil || !errors.Is(panicked.Err, core.ErrPanic) {
		t.Fatalf("bad cell error = %+v, want ErrPanic", panicked)
	}
	var pe *core.PanicError
	if !errors.As(panicked.Err, &pe) || pe.Val != "injected worker panic" || pe.Stack == "" {
		t.Errorf("PanicError = %+v, want recovered value and stack", pe)
	}
	if sr.Err() == nil {
		t.Error("SweepResult.Err() = nil despite a failed cell")
	}
}

func TestSweepRetriesTransientOnce(t *testing.T) {
	var calls atomic.Int64
	flaky := fakeBench("flaky", func(cfgs []core.Config, _ core.RunOptions) ([]*core.Report, error) {
		if calls.Add(1) == 1 {
			panic("transient glitch")
		}
		return okReports("flaky", cfgs), nil
	})
	h := NewHarnessWith(HarnessOptions{RetryTransient: true})
	sr := h.Sweep(context.Background(), []*Benchmark{flaky}, []core.Config{{Model: core.DOALL}})
	if sr.OK() != 1 {
		t.Fatalf("flaky cell should succeed on retry: %v", sr.Cells[0].Err)
	}
	if sr.Cells[0].Attempts != 2 || calls.Load() != 2 {
		t.Errorf("attempts = %d, calls = %d, want 2/2", sr.Cells[0].Attempts, calls.Load())
	}

	// Deterministic failures are not retried.
	var detCalls atomic.Int64
	det := fakeBench("det", func([]core.Config, core.RunOptions) ([]*core.Report, error) {
		detCalls.Add(1)
		return nil, core.ErrStepLimit
	})
	sr = h.Sweep(context.Background(), []*Benchmark{det}, []core.Config{{Model: core.DOALL}})
	if detCalls.Load() != 1 {
		t.Errorf("deterministic failure retried: %d calls", detCalls.Load())
	}
	if sr.Counts[core.OutcomeStepLimit] != 1 {
		t.Errorf("counts = %v, want 1 step-limit", sr.Counts)
	}
}

func TestSweepClassifiesBudgetOutcomes(t *testing.T) {
	h := NewHarnessWith(HarnessOptions{Run: core.RunOptions{MaxSteps: 10_000}})
	runaway := runawayBench("runaway")
	faulty := &Benchmark{
		Name: "faulty", Suite: SuiteEEMBC, Modeled: "injected div-by-zero",
		Source: `func main() int { var z int = 0; return 1 / z; }`,
	}
	good := ByName("aifirf")
	if good == nil {
		t.Fatal("registry benchmark aifirf missing")
	}
	sr := h.Sweep(context.Background(), []*Benchmark{runaway, faulty, good},
		[]core.Config{{Model: core.DOALL}})
	want := map[core.Outcome]int{
		core.OutcomeStepLimit:    1,
		core.OutcomeRuntimeError: 1,
	}
	// aifirf may or may not fit in 10k steps; accept either classified
	// outcome but require the total to add up with no panics/unknowns.
	for o, n := range want {
		if sr.Counts[o] < n {
			t.Errorf("outcome %s = %d, want >= %d (counts %v)", o, sr.Counts[o], n, sr.Counts)
		}
	}
	if sr.Counts[core.OutcomePanic] != 0 || sr.Counts[core.OutcomeError] != 0 {
		t.Errorf("unexpected panic/unknown outcomes: %v", sr.Counts)
	}
	if got := len(sr.Failed()); got < 2 {
		t.Errorf("Failed() = %d cells, want >= 2", got)
	}
	if s := sr.Summary(); !strings.Contains(s, "step-limit") {
		t.Errorf("summary %q should mention step-limit", s)
	}
	// The runaway cell error is typed all the way out.
	for _, c := range sr.Cells {
		if c.Bench == "runaway" && !errors.Is(c.Err, core.ErrStepLimit) {
			t.Errorf("runaway cell error %v does not match ErrStepLimit", c.Err)
		}
	}
}

// TestReportSingleflight: concurrent Report calls for the same cell must
// execute the benchmark exactly once (the old harness raced two misses
// into duplicate b.Run work).
func TestReportSingleflight(t *testing.T) {
	var calls atomic.Int64
	gate := make(chan struct{})
	slow := fakeBench("slow", func(cfgs []core.Config, _ core.RunOptions) ([]*core.Report, error) {
		calls.Add(1)
		<-gate
		return okReports("slow", cfgs), nil
	})
	h := NewHarness()
	cfg := core.Config{Model: core.DOALL}
	const n = 16
	var wg sync.WaitGroup
	reports := make([]*core.Report, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := h.Report(slow, cfg)
			if err != nil {
				t.Error(err)
			}
			reports[i] = r
		}(i)
	}
	close(gate)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("benchmark executed %d times under concurrent Report, want 1", calls.Load())
	}
	for i := 1; i < n; i++ {
		if reports[i] != reports[0] {
			t.Fatal("concurrent callers saw different report instances")
		}
	}
}

func TestSweepHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	b := fakeBench("b", func(cfgs []core.Config, _ core.RunOptions) ([]*core.Report, error) {
		calls.Add(1)
		return okReports("b", cfgs), nil
	})
	h := NewHarness()
	sr := h.Sweep(ctx, []*Benchmark{b}, []core.Config{{Model: core.DOALL}})
	if sr.Counts[core.OutcomeCanceled] != 1 {
		t.Fatalf("counts = %v, want 1 canceled", sr.Counts)
	}
	// Cancellation must not poison the cache: a fresh sweep succeeds.
	sr = h.Sweep(context.Background(), []*Benchmark{b}, []core.Config{{Model: core.DOALL}})
	if sr.OK() != 1 {
		t.Fatalf("post-cancel sweep: %v", sr.Cells[0].Err)
	}
}

func TestSweepMidRunCancellation(t *testing.T) {
	// A real runaway kernel, canceled once it is executing: the
	// interpreter's poll must stop it and classify the cell as canceled.
	// The hook runs the kernel through core.MultiRun on its first call and
	// stands in for a fixed kernel afterwards.
	spin := runawayBench("spin")
	info, err := spin.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	spin.runHook = func(cfgs []core.Config, opts core.RunOptions) ([]*core.Report, error) {
		if calls.Add(1) > 1 {
			return okReports("spin", cfgs), nil
		}
		time.AfterFunc(10*time.Millisecond, cancel)
		return core.MultiRun(info, cfgs, opts)
	}
	h := NewHarness()
	cfgs := []core.Config{{Model: core.DOALL}}
	sr := h.Sweep(ctx, []*Benchmark{spin}, cfgs)
	c := sr.Cells[0]
	if c.Outcome != core.OutcomeCanceled {
		t.Fatalf("outcome = %v (err %v), want canceled", c.Outcome, c.Err)
	}
	var le *interp.LimitError
	if !errors.As(c.Err, &le) || le.Step == 0 {
		t.Errorf("canceled cell error %v, want the interpreter's poll to stop the run", c.Err)
	}
	// Cancellation must not poison the cache: a fresh sweep runs the cell
	// again and succeeds.
	sr = h.Sweep(context.Background(), []*Benchmark{spin}, cfgs)
	if sr.OK() != 1 || calls.Load() != 2 {
		t.Fatalf("post-cancel sweep: %v after %d executions, want success on the 2nd", sr.Cells[0].Err, calls.Load())
	}
}

// TestSweepRunsHookOncePerBatch: the run hook sits where core.MultiRun
// does, so a benchmark swept under several configurations executes once,
// and a failed execution fails every cell of its batch.
func TestSweepRunsHookOncePerBatch(t *testing.T) {
	var calls atomic.Int64
	b := fakeBench("batched", func(cfgs []core.Config, _ core.RunOptions) ([]*core.Report, error) {
		calls.Add(1)
		return okReports("batched", cfgs), nil
	})
	cfgs := []core.Config{{Model: core.DOALL}, core.BestPDOALL(), core.BestHELIX()}
	h := NewHarness()
	sr := h.Sweep(context.Background(), []*Benchmark{b}, cfgs)
	if sr.OK() != len(cfgs) {
		t.Fatalf("counts = %v, want %d ok", sr.Counts, len(cfgs))
	}
	for i, c := range sr.Cells {
		if c.Report.Config != cfgs[i] || c.Attempts != 1 {
			t.Errorf("cell %d: report for %s after %d attempts, want %s after 1", i, c.Report.Config, c.Attempts, cfgs[i])
		}
	}
	if calls.Load() != 1 {
		t.Errorf("hook ran %d times for one batch, want 1", calls.Load())
	}
	if st, want := h.Stats(), (Stats{Executions: 1, Cells: 3, Saved: 2}); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}

	var failCalls atomic.Int64
	bad := fakeBench("bad", func([]core.Config, core.RunOptions) ([]*core.Report, error) {
		failCalls.Add(1)
		return nil, core.ErrMemLimit
	})
	sr = h.Sweep(context.Background(), []*Benchmark{bad}, cfgs)
	if sr.Counts[core.OutcomeMemLimit] != len(cfgs) || failCalls.Load() != 1 {
		t.Errorf("counts = %v after %d executions, want %d mem-limit cells from 1", sr.Counts, failCalls.Load(), len(cfgs))
	}
}

// TestSweepAnalysisFailureRunsNothing: a benchmark that does not compile
// fails every cell with its compile error and counts no execution.
func TestSweepAnalysisFailureRunsNothing(t *testing.T) {
	broken := &Benchmark{
		Name: "broken", Suite: SuiteEEMBC, Modeled: "injected compile error",
		Source: `func main( int { return 0; }`,
	}
	cfgs := []core.Config{{Model: core.DOALL}, core.BestHELIX()}
	h := NewHarness()
	sr := h.Sweep(context.Background(), []*Benchmark{broken}, cfgs)
	if got := len(sr.Failed()); got != len(cfgs) {
		t.Fatalf("failed cells = %d, want %d", got, len(cfgs))
	}
	for _, c := range sr.Cells {
		if c.Attempts != 0 {
			t.Errorf("%s: %d attempts, want 0", c.Config, c.Attempts)
		}
	}
	if st := h.Stats(); st != (Stats{}) {
		t.Errorf("stats = %+v, want none", st)
	}
	if _, err := h.Report(broken, cfgs[0]); err == nil {
		t.Error("Report of the broken benchmark succeeded")
	}
}

// TestSuiteGeomeanSurvivesFailedCells: a failed benchmark degrades the
// suite geomean to the survivors instead of failing the whole suite
// (the old Prefetch leaked a global first-error into every figure path).
func TestSuiteGeomeanSurvivesFailedCells(t *testing.T) {
	b := ByName("aifirf")
	if b == nil {
		t.Fatal("registry benchmark aifirf missing")
	}
	if b.runHook != nil {
		t.Fatal("registry benchmark already hooked")
	}
	b.runHook = failing(core.ErrStepLimit)
	defer func() { b.runHook = nil }()

	h := NewHarness()
	cfg := core.Config{Model: core.DOALL}
	v, err := h.SuiteSpeedup(SuiteEEMBC, cfg)
	if err != nil {
		t.Fatalf("SuiteSpeedup should survive one failed cell: %v", err)
	}
	if v <= 0 {
		t.Errorf("geomean = %f, want positive over survivors", v)
	}
	// The failed cell's own error stays visible to direct callers.
	if _, err := h.Report(b, cfg); !errors.Is(err, core.ErrStepLimit) {
		t.Errorf("Report(aifirf) = %v, want the cell's typed error", err)
	}
	// And the harness records it for the failure summary.
	failures := h.Failures()
	if len(failures) != 1 || failures[0].Bench != "aifirf" || failures[0].Outcome != core.OutcomeStepLimit {
		t.Errorf("Failures() = %+v, want the one step-limited cell", failures)
	}
	if s := FormatFailureSummary(failures); !strings.Contains(s, "aifirf") || !strings.Contains(s, "step-limit") {
		t.Errorf("failure summary malformed:\n%s", s)
	}
}

// TestSuiteSpeedupAllCellsFailed: when no benchmark of a suite survives,
// the caller sees an error carrying the per-cell cause.
func TestSuiteSpeedupAllCellsFailed(t *testing.T) {
	var hooked []*Benchmark
	for _, b := range BySuite(SuiteEEMBC) {
		if b.runHook != nil {
			t.Fatal("registry benchmark already hooked")
		}
		b.runHook = failing(core.ErrMemLimit)
		hooked = append(hooked, b)
	}
	defer func() {
		for _, b := range hooked {
			b.runHook = nil
		}
	}()
	h := NewHarness()
	_, err := h.SuiteSpeedup(SuiteEEMBC, core.Config{Model: core.DOALL})
	if !errors.Is(err, core.ErrMemLimit) {
		t.Fatalf("SuiteSpeedup error = %v, want the per-cell ErrMemLimit", err)
	}
}

// TestFigureDegradesGracefully: an injected runaway cell yields annotated
// figure output plus a failure summary — the acceptance scenario.
func TestFigureDegradesGracefully(t *testing.T) {
	b := ByName("aifirf")
	if b == nil {
		t.Fatal("registry benchmark aifirf missing")
	}
	if b.runHook != nil {
		t.Fatal("registry benchmark already hooked")
	}
	b.runHook = failing(core.ErrStepLimit)
	defer func() { b.runHook = nil }()

	h := NewHarness()
	sr := h.Sweep(context.Background(), BySuite(SuiteEEMBC), []core.Config{{Model: core.DOALL}})
	if sr.OK() != len(BySuite(SuiteEEMBC))-1 || sr.Counts[core.OutcomeStepLimit] != 1 {
		t.Fatalf("sweep counts = %v", sr.Counts)
	}

	st := h.suiteStatOf(SuiteEEMBC, core.Config{Model: core.DOALL}, speedupMetric)
	if st.Failed != 1 || st.OK == 0 {
		t.Fatalf("suiteStat = %+v", st)
	}
	note := st.Note()
	if !strings.Contains(note, "/") {
		t.Errorf("partial note = %q, want k/n form", note)
	}
	rows := []FigureRow{{
		Config:   core.Config{Model: core.DOALL},
		PerSuite: map[Suite]float64{SuiteEEMBC: st.Geo},
		Notes:    map[Suite]string{SuiteEEMBC: note},
	}}
	out := FormatSpeedupFigure("Figure X", []Suite{SuiteEEMBC}, rows)
	if !strings.Contains(out, "*"+note) {
		t.Errorf("figure output missing partial annotation %q:\n%s", note, out)
	}

	// All-failed cells render as n/a(<class>).
	allFailed := suiteStat{Failed: 3, Outcome: core.OutcomeStepLimit}
	if got := allFailed.Note(); got != "n/a(steps)" {
		t.Errorf("all-failed note = %q, want n/a(steps)", got)
	}
	rows[0].Notes[SuiteEEMBC] = allFailed.Note()
	out = FormatSpeedupFigure("Figure X", []Suite{SuiteEEMBC}, rows)
	if !strings.Contains(out, "n/a(steps)") {
		t.Errorf("figure output missing n/a annotation:\n%s", out)
	}
}

func TestFormatFigure4AnnotatesFailures(t *testing.T) {
	rows := []Figure4Row{
		{Name: "181.mcf", Suite: SuiteINT2000, PDOALLSpeedup: 3, HELIXSpeedup: 1.2},
		{Name: "broken", Suite: SuiteINT2000, HELIXSpeedup: 2, PDOALLOutcome: core.OutcomeTimeout},
	}
	out := FormatFigure4(rows)
	if !strings.Contains(out, "n/a(time)") {
		t.Errorf("figure 4 missing timeout annotation:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "broken") && !strings.Contains(line, "-") {
			t.Errorf("failed row should have no winner: %q", line)
		}
	}
}
