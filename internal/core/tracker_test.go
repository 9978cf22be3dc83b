package core

import (
	"testing"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/interp"
)

// trackerCase names a dependence tracker and builds it for a module.
type trackerCase struct {
	name string
	new  func(info *analysis.ModuleInfo) depTracker
}

var (
	shadowCase = trackerCase{"shadow", func(info *analysis.ModuleInfo) depTracker { return newShadowTracker(info) }}
	mapCase    = trackerCase{"legacy-map", func(*analysis.ModuleInfo) depTracker { return newMapTracker[writeRec]() }}
)

// bothTrackers runs a subtest under the shadow and the map tracker: every
// scenario must behave identically under both.
func bothTrackers(t *testing.T, fn func(t *testing.T, tc trackerCase)) {
	t.Helper()
	for _, tc := range []trackerCase{shadowCase, mapCase} {
		t.Run(tc.name, func(t *testing.T) { fn(t, tc) })
	}
}

func newTrackerEngine(t *testing.T, cfg Config, tc trackerCase) (*Engine, *analysis.LoopMeta) {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	lm := fakeMeta()
	info := &analysis.ModuleInfo{Loops: []*analysis.LoopMeta{lm}}
	return newEngine(info, cfg, tc.new(info)), lm
}

// TestCactusStackBoundary pins the off-by-one of the cactus-stack
// exemption: a stack cell at exactly iterStartSP existed when the iteration
// began and is tracked; the cell one below (a younger frame) is
// iteration-private and exempt.
func TestCactusStackBoundary(t *testing.T) {
	iterSP := int64(interp.StackTop - 64)
	cases := []struct {
		name     string
		addr     int64
		conflict bool
	}{
		{"at-sp-tracked", iterSP, true},
		{"below-sp-exempt", iterSP - 1, false},
		{"above-sp-tracked", iterSP + 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bothTrackers(t, func(t *testing.T, tr trackerCase) {
				e, lm := newTrackerEngine(t, Config{Model: DOALL}, tr)
				e.EnterLoop(lm, iterSP, nil)
				e.Tick(5)
				e.Store(tc.addr)
				e.Tick(5)
				// The callee frames popped; the next iteration starts at
				// the same sp.
				e.IterLoop(lm, iterSP, nil)
				e.Tick(3)
				e.Load(tc.addr)
				e.Tick(7)
				e.IterLoop(lm, iterSP, nil)
				e.Tick(1)
				e.ExitLoop(lm)

				st := e.Stats()[lm]
				if tc.conflict {
					if st.Reason != SerialConflict {
						t.Errorf("reason = %v, want SerialConflict (addr %#x must be tracked)", st.Reason, tc.addr)
					}
				} else {
					if st.Reason != SerialNone {
						t.Errorf("reason = %v, want SerialNone (addr %#x is iteration-private)", st.Reason, tc.addr)
					}
				}
			})
		})
	}
}

// TestCactusStackExemptSameIteration: a younger-frame write and read within
// one loop (the classic callee-local temp) never conflicts even across
// iterations, because both accesses are below iterStartSP.
func TestCactusStackExemptSameIteration(t *testing.T) {
	bothTrackers(t, func(t *testing.T, tr trackerCase) {
		e, lm := newTrackerEngine(t, Config{Model: DOALL}, tr)
		sp := int64(interp.StackTop - 16)
		calleeCell := sp - 8 // inside a frame pushed during the iteration
		e.EnterLoop(lm, sp, nil)
		for i := 0; i < 3; i++ {
			e.Tick(2)
			e.Store(calleeCell)
			e.Tick(2)
			e.Load(calleeCell)
			e.Tick(2)
			e.IterLoop(lm, sp, nil)
		}
		e.Tick(1)
		e.ExitLoop(lm)
		if st := e.Stats()[lm]; st.Reason != SerialNone {
			t.Errorf("reason = %v, want SerialNone", st.Reason)
		}
	})
}

// TestPDOALLPhaseCommitVisibility pins the committed-phase rule: after a
// conflict closes a phase, reads of values written in *earlier, committed*
// phases are architecturally visible and must not re-conflict, while reads
// of the current phase's writes still do.
func TestPDOALLPhaseCommitVisibility(t *testing.T) {
	addrA := int64(interp.HeapBase + 10)
	addrC := int64(interp.HeapBase + 20)
	bothTrackers(t, func(t *testing.T, tr trackerCase) {
		e, lm := newTrackerEngine(t, Config{Model: PDOALL}, tr)
		e.EnterLoop(lm, interp.StackTop, nil)
		// iter 0: write A; phase 0.
		e.Tick(10)
		e.Store(addrA)
		e.IterLoop(lm, interp.StackTop, nil)
		// iter 1: read A -> conflict closes phase 0 (slowest 10); write C.
		e.Tick(4)
		e.Load(addrA)
		e.Tick(2)
		e.Store(addrC)
		e.Tick(4)
		e.IterLoop(lm, interp.StackTop, nil)
		// iter 2: read A again -> writer is in the committed phase, NO new
		// conflict; read C -> writer is in the current phase, conflict.
		e.Tick(3)
		e.Load(addrA)
		got := e.Stats()[lm] // same pointer before/after exit
		if got.Meta != lm {
			t.Fatal("stat lookup broken")
		}
		e.Load(addrC)
		e.Tick(7)
		e.IterLoop(lm, interp.StackTop, nil)
		e.Tick(1)
		e.ExitLoop(lm)

		st := e.Stats()[lm]
		if st.ConflictIters != 2 {
			t.Errorf("conflict iters = %d, want 2 (committed-phase read must not conflict)", st.ConflictIters)
		}
		if st.Reason != SerialNone {
			t.Fatalf("reason = %v, want SerialNone (2/3 < ConflictIterLimit)", st.Reason)
		}
		// Phases: {iter0}=10, {iter1}=10, {iter2 restarted}=10, tail 1.
		// parallel = 10 + 10 + 10 = 30, serial = 31, savings = 1.
		if e.SerialCost() != 31 {
			t.Fatalf("serial = %d, want 31", e.SerialCost())
		}
		if e.ParallelCost() != 30 {
			t.Errorf("parallel = %d, want 30", e.ParallelCost())
		}
	})
}

// TestSameIterationWritesInvisible: a read of an address written earlier in
// the SAME iteration is not a cross-iteration dependence.
func TestSameIterationWritesInvisible(t *testing.T) {
	addr := int64(interp.HeapBase + 5)
	bothTrackers(t, func(t *testing.T, tr trackerCase) {
		e, lm := newTrackerEngine(t, Config{Model: DOALL}, tr)
		e.EnterLoop(lm, interp.StackTop, nil)
		for i := 0; i < 2; i++ {
			e.Tick(5)
			e.Store(addr)
			e.Tick(1)
			e.Load(addr) // same iteration: fine
			e.Tick(4)
			e.IterLoop(lm, interp.StackTop, nil)
		}
		e.Tick(1)
		e.ExitLoop(lm)
		// Every iteration re-stores before loading, so the load always
		// sees its own iteration's write.
		if st := e.Stats()[lm]; st.Reason != SerialNone {
			t.Errorf("reason = %v, want SerialNone", st.Reason)
		}
	})
}

// TestShadowWildAddresses drives accesses outside every flat region cap
// (negative, between globals and heap, far beyond the heap flat cap): the
// overflow map must keep RAW detection exact, identically to the oracle.
func TestShadowWildAddresses(t *testing.T) {
	wilds := []int64{
		-3,                                    // negative (guest bug)
		int64(interp.HeapBase) - 1000,         // gap between globals and heap
		int64(interp.HeapBase) + (1<<24 + 77), // beyond the heap flat cap
	}
	for _, addr := range wilds {
		bothTrackers(t, func(t *testing.T, tr trackerCase) {
			e, lm := newTrackerEngine(t, Config{Model: DOALL}, tr)
			e.EnterLoop(lm, interp.StackTop, nil)
			e.Tick(5)
			e.Store(addr)
			e.Tick(5)
			e.IterLoop(lm, interp.StackTop, nil)
			e.Tick(3)
			e.Load(addr)
			e.Tick(7)
			e.IterLoop(lm, interp.StackTop, nil)
			e.Tick(1)
			e.ExitLoop(lm)
			if st := e.Stats()[lm]; st.Reason != SerialConflict {
				t.Errorf("addr %#x: reason = %v, want SerialConflict", addr, st.Reason)
			}
		})
	}
}

// TestShadowGenerationIsolation: writes of an earlier instance at the same
// nesting depth must be invisible to a later instance (the generation bump
// replaces map clearing).
func TestShadowGenerationIsolation(t *testing.T) {
	addr := int64(interp.HeapBase + 40)
	bothTrackers(t, func(t *testing.T, tr trackerCase) {
		e, lm := newTrackerEngine(t, Config{Model: DOALL}, tr)
		// Instance 1 writes addr in iteration 0 and exits cleanly.
		e.EnterLoop(lm, interp.StackTop, nil)
		e.Tick(5)
		e.Store(addr)
		e.Tick(5)
		e.IterLoop(lm, interp.StackTop, nil)
		e.Tick(1)
		e.ExitLoop(lm)
		// Instance 2 at the same depth reads addr in iteration 1: the
		// stale record must NOT conflict.
		e.EnterLoop(lm, interp.StackTop, nil)
		e.Tick(5)
		e.IterLoop(lm, interp.StackTop, nil)
		e.Tick(2)
		e.Load(addr)
		e.Tick(3)
		e.IterLoop(lm, interp.StackTop, nil)
		e.Tick(1)
		e.ExitLoop(lm)
		if st := e.Stats()[lm]; st.Reason != SerialNone {
			t.Errorf("reason = %v, want SerialNone (stale cross-instance record leaked)", st.Reason)
		}
	})
}

// TestLoopEventAnomalies: mismatched or underflowing Iter/Exit events are
// counted on the engine and surfaced on the Report, never silently dropped.
func TestLoopEventAnomalies(t *testing.T) {
	lmA, lmB := fakeMeta(), fakeMeta()
	info := &analysis.ModuleInfo{Loops: []*analysis.LoopMeta{lmA, lmB}}
	e := NewEngine(info, Config{Model: DOALL})

	e.IterLoop(lmA, interp.StackTop, nil) // empty stack
	e.ExitLoop(lmA)                       // empty stack
	e.EnterLoop(lmA, interp.StackTop, nil)
	e.IterLoop(lmB, interp.StackTop, nil) // wrong loop
	e.ExitLoop(lmB)                       // wrong loop
	e.ExitLoop(lmA)

	a := e.Anomalies()
	want := LoopEventAnomalies{IterNoActive: 1, ExitNoActive: 1, IterMismatch: 1, ExitMismatch: 1}
	if a != want {
		t.Errorf("anomalies = %+v, want %+v", a, want)
	}
	r := e.Report("anomalous")
	if r.Anomalies != want {
		t.Errorf("report anomalies = %+v, want %+v", r.Anomalies, want)
	}
	if r.Anomalies.Total() != 4 {
		t.Errorf("total = %d, want 4", r.Anomalies.Total())
	}
}

// TestAnomalyFreeRun: a well-formed hook sequence reports zero anomalies.
func TestAnomalyFreeRun(t *testing.T) {
	e, lm := newTrackerEngine(t, Config{Model: DOALL}, shadowCase)
	e.EnterLoop(lm, interp.StackTop, nil)
	e.Tick(5)
	e.IterLoop(lm, interp.StackTop, nil)
	e.Tick(1)
	e.ExitLoop(lm)
	if n := e.Anomalies().Total(); n != 0 {
		t.Errorf("anomalies = %d, want 0", n)
	}
}

// TestInstancePoolReuse: engine behaviour is independent of instance
// recycling — many sequential instances through the pool keep exact costs.
func TestInstancePoolReuse(t *testing.T) {
	e, lm := newTrackerEngine(t, Config{Model: DOALL}, shadowCase)
	for k := 0; k < 100; k++ {
		e.EnterLoop(lm, interp.StackTop, nil)
		for _, cost := range []int64{10, 20, 10, 15} {
			e.Tick(cost)
			e.IterLoop(lm, interp.StackTop, nil)
		}
		e.Tick(1)
		e.ExitLoop(lm)
	}
	// Per instance: serial 56, parallel 20 (Figure 1a).
	if got, want := e.SerialCost(), int64(100*56); got != want {
		t.Fatalf("serial = %d, want %d", got, want)
	}
	if got, want := e.ParallelCost(), int64(100*20); got != want {
		t.Errorf("parallel = %d, want %d", got, want)
	}
	st := e.Stats()[lm]
	if st.Instances != 100 || st.ParallelInstances != 100 {
		t.Errorf("instances = %d/%d, want 100/100", st.ParallelInstances, st.Instances)
	}
}
