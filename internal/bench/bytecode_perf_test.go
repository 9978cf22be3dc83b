package bench

import (
	"sort"
	"testing"

	"loopapalooza/internal/bytecode"
)

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
