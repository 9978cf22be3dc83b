package loopapalooza_test

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	lp "loopapalooza"
)

const apiProg = `
const N = 200;
var tab [N]int;
func main() int {
	var s int = 0;
	var i int;
	for (i = 0; i < N; i = i + 1) { tab[i] = i * 3; }
	for (i = 0; i < N; i = i + 1) { s = s + tab[i]; }
	return s;
}`

func TestPublicAPIStudy(t *testing.T) {
	r, err := lp.Study("api", apiProg, lp.Config{Model: lp.DOALL, Reduc: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Speedup() < 10 {
		t.Errorf("speedup = %.2f, want large for DOALL-able program", r.Speedup())
	}
	if !strings.Contains(r.String(), "DOALL") {
		t.Error("report does not mention the model")
	}
}

func TestPublicAPIAnalyzeReuse(t *testing.T) {
	info, err := lp.Analyze("api", apiProg)
	if err != nil {
		t.Fatal(err)
	}
	var speeds []float64
	for _, cfg := range lp.PaperConfigs() {
		r, err := lp.StudyAnalyzed(info, cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		speeds = append(speeds, r.Speedup())
	}
	if len(speeds) != 14 {
		t.Fatalf("paper configs = %d, want 14", len(speeds))
	}
	// Best HELIX must not lose to the most restrictive DOALL.
	if speeds[len(speeds)-1] < speeds[0] {
		t.Errorf("best HELIX (%.2f) below minimum DOALL (%.2f)", speeds[len(speeds)-1], speeds[0])
	}
}

func TestPublicAPIStudyManyAndReplay(t *testing.T) {
	info, err := lp.Analyze("api", apiProg)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := lp.PaperConfigs()
	var trace bytes.Buffer
	reps, err := lp.StudyMany(info, cfgs, lp.RunOptions{Trace: &trace})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != len(cfgs) {
		t.Fatalf("reports = %d, want %d", len(reps), len(cfgs))
	}
	for i, cfg := range cfgs {
		want, err := lp.StudyAnalyzed(info, cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		if reps[i].Speedup() != want.Speedup() || reps[i].SerialCost != want.SerialCost {
			t.Errorf("%s: StudyMany diverged from StudyAnalyzed", cfg)
		}
		got, err := lp.ReplayTrace("api", info, cfg, bytes.NewReader(trace.Bytes()))
		if err != nil {
			t.Fatalf("%s: replay: %v", cfg, err)
		}
		if got.Speedup() != want.Speedup() || got.ParallelCost != want.ParallelCost {
			t.Errorf("%s: ReplayTrace diverged from StudyAnalyzed", cfg)
		}
	}
}

func TestPublicAPIParseConfig(t *testing.T) {
	cfg, err := lp.ParseConfig("reduc1-dep1-fn2 HELIX")
	if err != nil {
		t.Fatal(err)
	}
	if cfg != lp.BestHELIX() {
		t.Errorf("parsed %v, want BestHELIX", cfg)
	}
	if _, err := lp.ParseConfig("reduc1-dep1-fn2 DOALL"); err == nil {
		t.Error("dep1 DOALL should not validate")
	}
}

func TestPublicAPIBenchmarkRegistry(t *testing.T) {
	all := lp.Benchmarks()
	if len(all) < 40 {
		t.Fatalf("registry has %d kernels, want >= 40", len(all))
	}
	mcf := lp.BenchmarkByName("181.mcf")
	if mcf == nil {
		t.Fatal("181.mcf missing")
	}
	r, err := mcf.Run(lp.BestPDOALL())
	if err != nil {
		t.Fatal(err)
	}
	if r.Speedup() < 1 {
		t.Errorf("speedup = %.2f", r.Speedup())
	}
}

func TestPublicAPIBadProgram(t *testing.T) {
	if _, err := lp.Study("bad", "func main() int { return x; }", lp.Config{}); err == nil {
		t.Error("undefined variable should fail")
	}
	if _, err := lp.Analyze("bad", "not a program"); err == nil {
		t.Error("syntax error should fail")
	}
}

// TestStudyInvariants is a property check over the whole pipeline: for any
// (small) trip count and any valid configuration, the parallel cost never
// exceeds the serial cost, coverage stays within [0,1], and runs are
// deterministic.
func TestStudyInvariants(t *testing.T) {
	prog := `
const N = 64;
var a [N]int;
var hot [4]int;
func main() int {
	var i int;
	for (i = 0; i < N; i = i + 1) { a[i] = (i * 7 + 3) % 31; }
	for (i = 1; i < N; i = i + 1) {
		hot[0] = hot[0] + a[i];
		a[i] = a[i] + a[i-1] % 5;
	}
	return a[N-1] + hot[0];
}`
	info, err := lp.Analyze("inv", prog)
	if err != nil {
		t.Fatal(err)
	}
	f := func(model, reduc, dep, fn uint8) bool {
		cfg := lp.Config{
			Model: lp.Model(model % 3),
			Reduc: int(reduc % 2),
			Dep:   int(dep % 4),
			Fn:    int(fn % 4),
		}
		if cfg.Validate() != nil {
			return true // skip invalid combinations
		}
		r1, err := lp.StudyAnalyzed(info, cfg)
		if err != nil {
			return false
		}
		r2, err := lp.StudyAnalyzed(info, cfg)
		if err != nil {
			return false
		}
		return r1.ParallelCost <= r1.SerialCost &&
			r1.ParallelCost > 0 &&
			r1.Coverage() >= 0 && r1.Coverage() <= 1 &&
			r1.SerialCost == r2.SerialCost &&
			r1.ParallelCost == r2.ParallelCost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestPublicAPICluster(t *testing.T) {
	coord := lp.NewCoordinator(lp.CoordinatorOptions{Seed: 1})
	defer coord.Close()
	w, err := lp.NewClusterWorker(lp.ClusterWorkerOptions{ID: "facade", Coordinator: coord})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()
	defer func() { cancel(); <-done }()

	b := lp.Benchmarks()[0]
	id, err := coord.Submit("", []*lp.Benchmark{b}, []lp.Config{lp.BestHELIX()}, true)
	if err != nil {
		t.Fatal(err)
	}
	waitCtx, waitCancel := context.WithTimeout(ctx, 30*time.Second)
	defer waitCancel()
	if err := coord.Wait(waitCtx, id); err != nil {
		t.Fatal(err)
	}
	st, err := coord.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	var _ *lp.JobStatus = st
	if st.Counts[lp.OutcomeOK] != 1 || st.Cells[0].Report == nil {
		t.Fatalf("cluster job status %+v, want 1 ok with report", st)
	}

	// The committed report matches a direct single-process study.
	direct, err := b.Run(lp.BestHELIX())
	if err != nil {
		t.Fatal(err)
	}
	got := coord.Report(id, b.Name, lp.BestHELIX())
	if got == nil || got.SerialCost != direct.SerialCost || got.ParallelCost != direct.ParallelCost {
		t.Fatalf("cluster report %+v differs from direct run %+v", got, direct)
	}
}

// TestAnalyzeReleasesModule: once an analysis result and the reports run
// on it are dropped, the IR is garbage. No scratch the front end, the
// lowering or a run keeps (a pooled or package-level table that still
// pointed into the last module) may hold it. The finalizer sits on one of
// the module's globals: every part of the IR reaches it through
// Module.Globals or an operand, while the Module itself lies on cycles
// (Function.Module, Block.Parent), and a finalizer on an object in a cycle
// never runs.
func TestAnalyzeReleasesModule(t *testing.T) {
	freed := make(chan struct{})
	func() {
		info, err := lp.Analyze("retain", apiProg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lp.StudyAnalyzed(info, lp.BestHELIX()); err != nil {
			t.Fatal(err)
		}
		if _, err := lp.StudyMany(info, lp.PaperConfigs(), lp.RunOptions{}); err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(info.Mod.Globals[0], func(any) { close(freed) })
	}()
	runtime.GC()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(10 * time.Second):
		t.Fatal("the analyzed module is still reachable after its result was dropped and two GCs ran")
	}
}
