package bench

import (
	"fmt"
	"testing"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/core"
	"loopapalooza/internal/lang"
	"loopapalooza/internal/lang/lpcgen"
)

// The metamorphic invariant suite. Each program — every registered
// benchmark plus a corpus of generator-derived loop nests — is pushed
// through the strict pipeline (ir.Verify after every pass) and executed
// under paired configurations, checking the properties the paper's model
// guarantees by construction:
//
//   - every report is self-consistent and anomaly-free, with speedup ≥ 1
//     (core.VerifyReport);
//   - partial DOALL subsumes DOALL under equal flags
//     (core.CheckModelOrdering).
//
// The suite's tracker leg — shadow-memory and map-tracker runs of the same
// programs produce bit-identical reports — needs the test-only map
// tracker, so it lives in internal/core (TestMetamorphicTrackerOracle).

// orderingPairs are the (DOALL, PDOALL) flag pairings checked for model
// dominance. DOALL only validates with dep0, so the pairs span the
// reduc/fn axes.
func orderingPairs() [][2]core.Config {
	return [][2]core.Config{
		{{Model: core.DOALL, Reduc: 0, Dep: 0, Fn: 0}, {Model: core.PDOALL, Reduc: 0, Dep: 0, Fn: 0}},
		{{Model: core.DOALL, Reduc: 1, Dep: 0, Fn: 2}, {Model: core.PDOALL, Reduc: 1, Dep: 0, Fn: 2}},
	}
}

// checkProgram runs the full metamorphic battery on one LPC program.
func checkProgram(t *testing.T, name, src string, opts core.RunOptions) {
	t.Helper()
	m, err := lang.Compile(name, src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	info, err := analysis.AnalyzeModuleStrict(m)
	if err != nil {
		t.Fatalf("strict pipeline: %v", err)
	}

	for _, pair := range orderingPairs() {
		var reports [2]*core.Report
		for i, cfg := range pair {
			rep, err := core.Run(info, cfg, opts)
			if err != nil {
				t.Fatalf("%s: %v", cfg, err)
			}
			if verr := core.VerifyReport(rep); verr != nil {
				t.Errorf("%s: %v", cfg, verr)
			}
			reports[i] = rep
		}
		if oerr := core.CheckModelOrdering(reports[0], reports[1]); oerr != nil {
			t.Errorf("%v", oerr)
		}
	}

	// The remaining models have no DOALL counterpart; their reports must
	// still verify.
	for _, cfg := range []core.Config{core.BestPDOALL(), core.BestHELIX()} {
		rep, err := core.Run(info, cfg, opts)
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		if verr := core.VerifyReport(rep); verr != nil {
			t.Errorf("%s: %v", cfg, verr)
		}
	}
}

// TestMetamorphicInvariantsSuite runs the battery over every registered
// benchmark.
func TestMetamorphicInvariantsSuite(t *testing.T) {
	benchmarks := All()
	if len(benchmarks) == 0 {
		t.Fatal("no registered benchmarks")
	}
	if testing.Short() {
		benchmarks = benchmarks[:len(benchmarks)/4]
	}
	for _, b := range benchmarks {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			checkProgram(t, b.Name, b.Source, core.RunOptions{})
		})
	}
}

// TestMetamorphicInvariantsGenerated runs the battery over a corpus of
// generator-derived loop nests: programs with index masks, bounded while
// loops, and seed-dependent dependence patterns that the hand-written
// suite does not cover.
func TestMetamorphicInvariantsGenerated(t *testing.T) {
	n := 48
	if testing.Short() {
		n = 8
	}
	opts := core.RunOptions{MaxSteps: 2_000_000, MaxHeapCells: 1 << 20}
	x := uint64(0x243F6A8885A308D3) // fixed: the corpus is deterministic
	for i := 0; i < n; i++ {
		seed := make([]byte, int(x%97)+1)
		for j := range seed {
			x = x*6364136223846793005 + 1442695040888963407
			seed[j] = byte(x >> 33)
		}
		t.Run(fmt.Sprintf("seed%02d", i), func(t *testing.T) {
			t.Parallel()
			checkProgram(t, "gen.lpc", lpcgen.Program(seed), opts)
		})
	}
}
