package bench

import (
	"sort"
	"testing"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/bytecode"
	"loopapalooza/internal/interp"
	"loopapalooza/internal/lang"
)

// frontEndSink keeps BenchmarkFrontEnd's last result reachable, so the
// compiler cannot drop the measured calls.
var frontEndSink *bytecode.Program

// frontEndAllocCeiling bounds the allocations of compiling and analyzing
// 181.mcf: the count the dense-index front end makes (1,258; 2,196 before
// it) plus 10%. A pass that goes back to throwaway maps keyed by pointer
// crosses it.
const frontEndAllocCeiling = 1384

func TestFrontEndAllocCeiling(t *testing.T) {
	bm := ByName("181.mcf")
	allocs := testing.AllocsPerRun(10, func() {
		m, err := lang.Compile(bm.Name, bm.Source)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := analysis.AnalyzeModule(m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > frontEndAllocCeiling {
		t.Fatalf("lang.Compile + analysis.AnalyzeModule of %s: %.0f allocations, ceiling %d", bm.Name, allocs, frontEndAllocCeiling)
	}
}

// BenchmarkFrontEnd measures the compile-time pipeline without its memo:
// each op runs lang.Compile, analysis.AnalyzeModule and bytecode.Compile
// on the source of every registered kernel. BenchmarkBytecodeLowering
// reuses each kernel's memoized analysis, so it times lowering alone.
func BenchmarkFrontEnd(b *testing.B) {
	benches := All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bm := range benches {
			m, err := lang.Compile(bm.Name, bm.Source)
			if err != nil {
				b.Fatal(err)
			}
			info, err := analysis.AnalyzeModule(m)
			if err != nil {
				b.Fatal(err)
			}
			if frontEndSink, err = bytecode.Compile(info); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBytecodeLowering measures compiling the whole registered suite
// to bytecode and reports the suite-wide static opcode mix as custom
// metrics: total instructions, how many are fused superinstructions, and
// one "op/<mnemonic>" counter per opcode (BENCH_PR7.json's
// bytecode_lowering table — the superinstruction-coverage record).
func BenchmarkBytecodeLowering(b *testing.B) {
	benches := All()
	var progs []*bytecode.Program
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		progs = progs[:0]
		for _, bm := range benches {
			info, err := bm.Analyze()
			if err != nil {
				b.Fatal(err)
			}
			// Compile, not For: each op must pay the full lowering, not a
			// memoized lookup.
			p, err := bytecode.Compile(info)
			if err != nil {
				b.Fatal(err)
			}
			progs = append(progs, p)
		}
	}
	b.StopTimer()

	var static, fused int64
	counts := map[string]int64{}
	for _, p := range progs {
		static += p.StaticInsts()
		fused += p.FusedInsts()
		for op, n := range p.OpCounts() {
			counts[op] += n
		}
	}
	b.ReportMetric(float64(static), "insts")
	b.ReportMetric(float64(fused), "fused-insts")
	if static > 0 {
		b.ReportMetric(100*float64(fused)/float64(static), "fused-pct")
	}
	ops := make([]string, 0, len(counts))
	for op := range counts {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		b.ReportMetric(float64(counts[op]), "op/"+op)
	}
}

// BenchmarkVMSuite measures the bytecode VM alone over the whole suite:
// one op runs every kernel's memoized program once on a fresh
// bytecode.NewVM with no-op hooks, so its B/op is the guest memory and
// VM set-up one pass of the 57 kernels allocates, and its time is plain
// dispatch with no limit-study engine behind it.
func BenchmarkVMSuite(b *testing.B) {
	benches := All()
	progs := make([]*bytecode.Program, len(benches))
	for i, bm := range benches {
		info, err := bm.Analyze()
		if err != nil {
			b.Fatal(err)
		}
		if progs[i], err = bytecode.For(info); err != nil {
			b.Fatal(err)
		}
	}
	cfg := interp.Config{Hooks: interp.NopHooks{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, p := range progs {
			if _, err := bytecode.NewVM(p, cfg).Run("main"); err != nil {
				b.Fatalf("%s: %v", benches[j].Name, err)
			}
		}
	}
}
