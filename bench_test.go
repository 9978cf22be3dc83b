// Benchmarks that regenerate the paper's evaluation. One bench per table
// and figure (see DESIGN.md §4 for the index):
//
//	go test -bench=. -benchmem
//
// The figure benches report the suite geometric means as custom metrics
// (e.g. "cint2000_best_helix_x"), so a bench run reproduces the paper's
// headline numbers alongside the harness's own cost.
package loopapalooza_test

import (
	"fmt"
	"testing"

	lp "loopapalooza"
	"loopapalooza/internal/analysis"
	"loopapalooza/internal/bench"
	"loopapalooza/internal/core"
	"loopapalooza/internal/interp"
	"loopapalooza/internal/lang"
	"loopapalooza/internal/predict"
)

// BenchmarkTableI measures the compile-time dependency categorization
// (Table I): front end + canonicalization + SCEV + reductions + purity over
// the whole benchmark registry.
func BenchmarkTableI(b *testing.B) {
	srcs := map[string]string{}
	for _, bm := range bench.All() {
		srcs[bm.Name] = bm.Source
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loops := 0
		for name, src := range srcs {
			m, err := lang.Compile(name, src)
			if err != nil {
				b.Fatal(err)
			}
			info, err := analysis.AnalyzeModule(m)
			if err != nil {
				b.Fatal(err)
			}
			loops += len(info.Loops)
		}
		if loops == 0 {
			b.Fatal("no loops analyzed")
		}
	}
}

// BenchmarkTableII measures configuration validation and parsing across the
// whole flag space (Table II).
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, cfg := range core.PaperConfigs() {
			rt, err := core.ParseConfig(cfg.String())
			if err != nil || rt != cfg {
				b.Fatalf("round trip failed for %s", cfg)
			}
		}
	}
}

// BenchmarkFigure1 measures the execution-model cost engines on a synthetic
// event stream (the didactic loop of Figure 1, scaled up).
func BenchmarkFigure1(b *testing.B) {
	src := `
const N = 200;
var a [N]int;
func main() int {
	var i int;
	a[0] = 1;
	for (i = 1; i < N; i = i + 1) { a[i] = a[i-1] + i; }
	var s int = 0;
	for (i = 0; i < N; i = i + 1) { s = s + a[i]; }
	return s;
}`
	info, err := lp.Analyze("figure1", src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, model := range []lp.Model{lp.DOALL, lp.PDOALL, lp.HELIX} {
			if _, err := lp.StudyAnalyzed(info, lp.Config{Model: model, Reduc: 1}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func reportSuiteMetrics(b *testing.B, h *bench.Harness, suites []bench.Suite, rows []bench.FigureRow) {
	for _, row := range rows {
		// Only surface the headline configurations as metrics.
		name := ""
		switch row.Config {
		case core.BestHELIX():
			name = "best_helix"
		case core.BestPDOALL():
			name = "best_pdoall"
		case (core.Config{Model: core.DOALL}):
			name = "doall"
		}
		if name == "" {
			continue
		}
		for _, s := range suites {
			b.ReportMetric(row.PerSuite[s], fmt.Sprintf("%s_%s_x", s, name))
		}
	}
}

// BenchmarkFigure2 regenerates the non-numeric speedup figure (SpecINT-like
// suites under all fourteen configurations).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := bench.NewHarness()
		rows, err := h.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportSuiteMetrics(b, h, bench.NonNumericSuites(), rows)
		}
	}
}

// BenchmarkFigure3 regenerates the numeric speedup figure (EEMBC/SpecFP-like
// suites under all fourteen configurations).
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := bench.NewHarness()
		rows, err := h.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportSuiteMetrics(b, h, bench.NumericSuites(), rows)
		}
	}
}

// BenchmarkFigure4 regenerates the per-benchmark best-PDOALL vs best-HELIX
// comparison and reports how many benchmarks each model wins.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := bench.NewHarness()
		rows, err := h.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			pd := 0
			for _, r := range rows {
				if r.PDOALLSpeedup > r.HELIXSpeedup {
					pd++
				}
			}
			b.ReportMetric(float64(pd), "pdoall_wins")
			b.ReportMetric(float64(len(rows)-pd), "helix_wins")
		}
	}
}

// BenchmarkFigure5 regenerates the dynamic-coverage figure and reports the
// HELIX-dep1 coverage per suite.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := bench.NewHarness()
		rows, err := h.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := rows[len(rows)-1] // HELIX reduc0-dep1-fn2
			for _, s := range bench.AllSuites() {
				b.ReportMetric(last.PerSuite[s], fmt.Sprintf("%s_cov_pct", s))
			}
		}
	}
}

// BenchmarkInterpreter measures raw uninstrumented execution throughput.
func BenchmarkInterpreter(b *testing.B) {
	bm := bench.ByName("456.hmmer")
	info, err := bm.Analyze()
	if err != nil {
		b.Fatal(err)
	}
	var steps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := interp.New(info, interp.Config{})
		res, err := in.Run("main")
		if err != nil {
			b.Fatal(err)
		}
		steps = res.Steps
	}
	b.ReportMetric(float64(steps), "ir_instrs/run")
}

// BenchmarkEngineOverhead measures the limit-study engine's cost on top of
// plain interpretation.
func BenchmarkEngineOverhead(b *testing.B) {
	bm := bench.ByName("456.hmmer")
	info, err := bm.Analyze()
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.BestHELIX()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(info, cfg, core.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// predictorHits keeps BenchmarkPredictors' results live.
var predictorHits int64

// BenchmarkPredictors measures hybrid value-predictor throughput and
// allocation per observation. "stream" feeds one hybrid an affine stream;
// "fresh-per-64" builds a new hybrid every 64 observations of a period-8
// stream, the way the engine builds one per observed LCD of each tracked
// loop, so it carries the hybrid's construction and FCM table cost.
func BenchmarkPredictors(b *testing.B) {
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		h := predict.NewHybrid()
		for i := 0; i < b.N; i++ {
			h.Observe(uint64(i) * 3)
		}
		predictorHits, _ = h.Stats()
	})
	b.Run("fresh-per-64", func(b *testing.B) {
		b.ReportAllocs()
		var h *predict.Hybrid
		for i := 0; i < b.N; i++ {
			if i%64 == 0 {
				h = predict.NewHybrid()
			}
			if h.Observe(uint64(i%8) * 1000003) {
				predictorHits++
			}
		}
	})
}

// BenchmarkAblationHelixDelta compares the paper's literal HELIX delta
// (p−c) against the gap-amortized variant ((p−c)/(j−i)) on the Figure 4
// sweep, reporting how many PDOALL winners each formula leaves. The
// amortized variant is strictly more optimistic for HELIX and erases the
// paper's called-out PDOALL winners (EXPERIMENTS.md, deviation 4).
func BenchmarkAblationHelixDelta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, amortize := range []bool{false, true} {
			hx := core.BestHELIX()
			hx.AmortizeHelixDelta = amortize
			pdWins := 0
			for _, bm := range bench.All() {
				if bm.Suite == bench.SuiteEEMBC {
					continue
				}
				rp, err := bm.Run(core.BestPDOALL())
				if err != nil {
					b.Fatal(err)
				}
				rh, err := bm.Run(hx)
				if err != nil {
					b.Fatal(err)
				}
				if rp.Speedup() > rh.Speedup() {
					pdWins++
				}
			}
			if i == 0 {
				name := "pdoall_wins_paper_delta"
				if amortize {
					name = "pdoall_wins_amortized"
				}
				b.ReportMetric(float64(pdWins), name)
			}
		}
	}
}
