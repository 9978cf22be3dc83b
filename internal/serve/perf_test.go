package serve

import (
	"testing"

	"loopapalooza/internal/bench"
	"loopapalooza/internal/core"
)

// BenchmarkAnalyzeFill runs the analyze fill of the 57 suite kernels
// under BestHELIX through the memory trace tier, one op per pass over
// the kernels. cold drops each kernel's entry first, so every fill runs
// live and records its trace into the tier; replay serves every fill
// from the trace the tier holds. B/op of cold is what a cold request
// costs beyond the HTTP and JSON layers.
func BenchmarkAnalyzeFill(b *testing.B) {
	s, err := New(Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	budgets := s.effectiveBudgets(nil)
	ks := bench.All()
	fill := func(b *testing.B, k *bench.Benchmark) {
		if _, err := s.analyzeFill(k.Name, k.Source, core.BestHELIX(), budgets); err != nil {
			b.Fatalf("%s: %v", k.Name, err)
		}
	}
	for _, k := range ks { // every kernel analyzed and recorded once
		fill(b, k)
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			for _, k := range ks {
				s.traces.Drop(TraceKey(k.Name, k.Source, budgets))
				fill(b, k)
			}
		}
	})
	b.Run("replay", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			for _, k := range ks {
				fill(b, k)
			}
		}
	})
}
