package core

import (
	"errors"
	"testing"

	"loopapalooza/internal/lang/lpcgen"
)

// fuzzRunOpts is the tight execution budget for fuzz runs: big enough that
// generated loop nests finish, small enough that a pathological input
// costs milliseconds, not the fuzzer's whole budget.
func fuzzRunOpts() RunOptions {
	return RunOptions{
		MaxSteps:     400_000,
		MaxHeapCells: 1 << 20,
	}
}

// classifyRunErr fails the test unless err fits the documented taxonomy.
// An unclassified error — above all a recovered panic — is a bug in the
// compile-and-run surface, reported with the generating source.
func classifyRunErr(t *testing.T, err error, src string) {
	t.Helper()
	if err == nil {
		return
	}
	if errors.Is(err, ErrPanic) {
		t.Fatalf("engine or interpreter panic: %v\nreproducer:\n%s", err, src)
	}
	for _, sentinel := range []error{ErrStepLimit, ErrMemLimit, ErrDeadline, ErrCanceled, ErrRuntime} {
		if errors.Is(err, sentinel) {
			return
		}
	}
	t.Fatalf("error outside the taxonomy: %v\nreproducer:\n%s", err, src)
}

// FuzzCompileAndRun drives the whole surface — lexer, parser, sema,
// codegen, analysis pipeline, interpreter, limit-study engine — on
// generator-derived programs that are type-correct by construction, then
// checks the metamorphic invariants on every successful run:
//
//   - report self-consistency incl. speedup ≥ 1 (VerifyReport);
//   - tracker independence: shadow-memory and map-tracker reports are
//     bit-identical (CompareReports);
//   - model dominance: PDOALL never loses to DOALL under equal flags
//     (CheckModelOrdering).
func FuzzCompileAndRun(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0})
	f.Add([]byte{255, 1, 128, 7})
	f.Add([]byte("loopapalooza"))
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1})

	f.Fuzz(func(t *testing.T, seed []byte) {
		src := lpcgen.Program(seed)
		info, err := AnalyzeSource("fuzz.lpc", src)
		if err != nil {
			// The generator emits type-correct programs; any compile
			// failure (including an ICE) is a front-end or generator bug.
			t.Fatalf("generated program failed to compile: %v\nsource:\n%s", err, src)
		}

		doallCfg := Config{Model: DOALL, Reduc: 1, Dep: 0, Fn: 2}
		pdoallCfg := Config{Model: PDOALL, Reduc: 1, Dep: 0, Fn: 2}

		reports := map[Model]*Report{}
		for _, cfg := range []Config{doallCfg, pdoallCfg, BestHELIX()} {
			rep, err := Run(info, cfg, fuzzRunOpts())
			repMap, errMap := Run(info, cfg, WithMapTracker(fuzzRunOpts()))
			classifyRunErr(t, err, src)
			classifyRunErr(t, errMap, src)
			if (err == nil) != (errMap == nil) {
				t.Fatalf("trackers disagree on failure under %s: shadow=%v map=%v\nsource:\n%s",
					cfg, err, errMap, src)
			}
			if err != nil {
				continue
			}
			if verr := VerifyReport(rep); verr != nil {
				t.Fatalf("%v under %s\nsource:\n%s", verr, cfg, src)
			}
			if cerr := CompareReports(rep, repMap); cerr != nil {
				t.Fatalf("%v\nsource:\n%s", cerr, src)
			}
			reports[cfg.Model] = rep
		}
		if d, p := reports[DOALL], reports[PDOALL]; d != nil && p != nil {
			if oerr := CheckModelOrdering(d, p); oerr != nil {
				t.Fatalf("%v\nsource:\n%s", oerr, src)
			}
		}
	})
}
