package core

import (
	"testing"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/interp"
)

func loopInfo(metas ...*analysis.LoopMeta) *analysis.ModuleInfo {
	return &analysis.ModuleInfo{Loops: metas}
}

// BenchmarkEngineLoadStore measures the dependence-tracking hot path: one
// store plus one load per op against a live loop instance, cycling through
// a heap working set, with an iteration boundary every 1024 ops and a
// fresh dynamic instance every window (the realistic lifecycle: loops
// re-enter constantly). The access pattern is conflict-free (each load
// reads its own iteration's write), so the instance stays live and every
// op pays full tracking cost. Instance turnover bumps the shadow
// tracker's generation instead of clearing its pages.
func BenchmarkEngineLoadStore(b *testing.B) {
	const window = 4096 // heap working set, words; also the instance length
	b.Run("shadow", func(b *testing.B) {
		lm := fakeMeta()
		e := NewEngine(loopInfo(lm), Config{Model: DOALL})
		e.EnterLoop(lm, interp.StackTop, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			addr := int64(interp.HeapBase) + int64(i&(window-1))
			e.Tick(1)
			e.Store(addr)
			e.Load(addr)
			switch i & (window - 1) {
			case window - 1:
				e.ExitLoop(lm)
				e.EnterLoop(lm, interp.StackTop, nil)
			case 1023, 2047, 3071:
				e.IterLoop(lm, interp.StackTop, nil)
			}
		}
		b.StopTimer()
		e.Tick(1)
		e.ExitLoop(lm)
		if st := e.Stats()[lm]; st.Reason != SerialNone {
			b.Fatalf("benchmark loop serialized (%v): access pattern is broken", st.Reason)
		}
	})
}

// BenchmarkEngineNestedLoadStore is the same hot path under three nested
// live instances — the per-level cost of the tracker walk.
func BenchmarkEngineNestedLoadStore(b *testing.B) {
	const window = 4096
	b.Run("shadow", func(b *testing.B) {
		metas := []*analysis.LoopMeta{fakeMeta(), fakeMeta(), fakeMeta()}
		e := NewEngine(loopInfo(metas...), Config{Model: DOALL})
		for _, lm := range metas {
			e.EnterLoop(lm, interp.StackTop, nil)
		}
		inner := metas[len(metas)-1]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			addr := int64(interp.HeapBase) + int64(i&(window-1))
			e.Tick(1)
			e.Store(addr)
			e.Load(addr)
			if i&1023 == 1023 {
				e.IterLoop(inner, interp.StackTop, nil)
			}
		}
	})
}

// BenchmarkEngineEnterExit measures instance setup/teardown: pooled
// instance records and generation-bump clearing. Each op is one
// enter/store/iterate/exit cycle.
func BenchmarkEngineEnterExit(b *testing.B) {
	b.Run("shadow", func(b *testing.B) {
		lm := fakeMeta()
		e := NewEngine(loopInfo(lm), Config{Model: DOALL})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.EnterLoop(lm, interp.StackTop, nil)
			e.Tick(3)
			e.Store(int64(interp.HeapBase) + int64(i&63))
			e.IterLoop(lm, interp.StackTop, nil)
			e.Tick(3)
			e.ExitLoop(lm)
		}
	})
}
