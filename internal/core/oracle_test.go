package core_test

import (
	"fmt"
	"testing"

	"loopapalooza/internal/bench"
	"loopapalooza/internal/core"
	"loopapalooza/internal/lang/lpcgen"
)

// TestMetamorphicTrackerOracle is the tracker leg of the metamorphic
// invariant suite in internal/bench: every kernel and the same seeded
// corpus of generator-derived loop nests, under the suite's (DOALL,
// PDOALL) ordering configurations, must give bit-identical reports on the
// shadow tracker and on the map tracker.
func TestMetamorphicTrackerOracle(t *testing.T) {
	cfgs := []core.Config{
		{Model: core.DOALL, Reduc: 0, Dep: 0, Fn: 0},
		{Model: core.PDOALL, Reduc: 0, Dep: 0, Fn: 0},
		{Model: core.DOALL, Reduc: 1, Dep: 0, Fn: 2},
		{Model: core.PDOALL, Reduc: 1, Dep: 0, Fn: 2},
	}
	check := func(t *testing.T, name, src string, opts core.RunOptions) {
		info, err := core.AnalyzeSource(name, src)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range cfgs {
			rep, err := core.Run(info, cfg, opts)
			if err != nil {
				t.Fatalf("%s: %v", cfg, err)
			}
			repMap, err := core.Run(info, cfg, core.WithMapTracker(opts))
			if err != nil {
				t.Fatalf("%s (map tracker): %v", cfg, err)
			}
			if cerr := core.CompareReports(rep, repMap); cerr != nil {
				t.Errorf("%s: %v", cfg, cerr)
			}
		}
	}

	benchmarks := bench.All()
	if testing.Short() {
		benchmarks = benchmarks[:len(benchmarks)/4]
	}
	for _, b := range benchmarks {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			check(t, b.Name, b.Source, core.RunOptions{})
		})
	}

	// The corpus of TestMetamorphicInvariantsGenerated: the same seeds,
	// derived the same way.
	n := 48
	if testing.Short() {
		n = 8
	}
	opts := core.RunOptions{MaxSteps: 2_000_000, MaxHeapCells: 1 << 20}
	x := uint64(0x243F6A8885A308D3)
	for i := 0; i < n; i++ {
		seed := make([]byte, int(x%97)+1)
		for j := range seed {
			x = x*6364136223846793005 + 1442695040888963407
			seed[j] = byte(x >> 33)
		}
		t.Run(fmt.Sprintf("seed%02d", i), func(t *testing.T) {
			t.Parallel()
			check(t, "gen.lpc", lpcgen.Program(seed), opts)
		})
	}
}
