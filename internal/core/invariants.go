package core

import (
	"fmt"
	"reflect"
)

// This file states the metamorphic invariants of the limit study as
// checkable predicates. They encode facts the paper's model guarantees by
// construction — a limit study never slows a program down, partial DOALL
// subsumes DOALL, dependence tracking is implementation-independent — so
// any run that violates one has hit an engine bug, not an interesting
// program. The fuzzing harness and the metamorphic test suite call these
// after every successful run.

// VerifyReport checks the internal consistency of one completed report:
//
//   - speedup ≥ 1: ParallelCost never exceeds SerialCost (the engine's
//     serial fallback guarantees a limit study cannot lose to serial);
//   - costs and coverage are non-negative, and covered time is bounded by
//     serial time;
//   - per-loop tallies are consistent (conflicting iterations are a subset
//     of iterations, parallel instances a subset of instances, predictor
//     hit rates are proper fractions);
//   - Anomalies is zero: every loop hook event was attributed.
//
// It returns the first violated invariant as an error, nil if all hold.
func VerifyReport(r *Report) error {
	if r == nil {
		return fmt.Errorf("invariant: nil report")
	}
	if r.SerialCost < 0 || r.ParallelCost < 0 {
		return fmt.Errorf("invariant: negative cost (serial %d, parallel %d)", r.SerialCost, r.ParallelCost)
	}
	if r.ParallelCost > r.SerialCost {
		return fmt.Errorf("invariant: speedup < 1: parallel cost %d exceeds serial cost %d",
			r.ParallelCost, r.SerialCost)
	}
	if r.CoveredTicks < 0 || r.CoveredTicks > r.SerialCost {
		return fmt.Errorf("invariant: covered ticks %d outside [0, serial %d]", r.CoveredTicks, r.SerialCost)
	}
	if n := r.Anomalies.Total(); n != 0 {
		return fmt.Errorf("invariant: %d unattributed loop events: %+v", n, r.Anomalies)
	}
	for i := range r.Loops {
		lr := &r.Loops[i]
		if lr.Iters < 0 || lr.Instances < 0 || lr.SerialTicks < 0 {
			return fmt.Errorf("invariant: loop %s has negative tallies: %+v", lr.ID, lr)
		}
		if lr.ConflictIters < 0 || lr.ConflictIters > lr.Iters {
			return fmt.Errorf("invariant: loop %s conflict iters %d outside [0, %d]",
				lr.ID, lr.ConflictIters, lr.Iters)
		}
		if lr.ParallelInstances < 0 || lr.ParallelInstances > lr.Instances {
			return fmt.Errorf("invariant: loop %s parallel instances %d outside [0, %d]",
				lr.ID, lr.ParallelInstances, lr.Instances)
		}
		if lr.PredHitRate < 0 || lr.PredHitRate > 1 {
			return fmt.Errorf("invariant: loop %s predictor hit rate %v outside [0, 1]",
				lr.ID, lr.PredHitRate)
		}
	}
	return nil
}

// CompareReports checks that two reports for the same (benchmark,
// configuration) cell are bit-identical. It is the differential oracles'
// report check: every engine, tracker, fan-out width and trace replay
// must produce byte-for-byte equal reports on every program.
func CompareReports(a, b *Report) error {
	if a == nil || b == nil {
		return fmt.Errorf("invariant: nil report in comparison (%v, %v)", a == nil, b == nil)
	}
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("invariant: reports differ for %s under %s:\n--- a ---\n%s\n--- b ---\n%s",
			a.Benchmark, a.Config, a, b)
	}
	return nil
}

// CheckModelOrdering checks the model-dominance invariant: under identical
// reduc/dep/fn flags, partial DOALL subsumes DOALL — every loop DOALL can
// parallelize, PDOALL parallelizes at least as well — so PDOALL's parallel
// cost never exceeds DOALL's. The two reports must come from the same
// program run under configurations differing only in Model.
func CheckModelOrdering(doall, pdoall *Report) error {
	if doall == nil || pdoall == nil {
		return fmt.Errorf("invariant: nil report in ordering check")
	}
	if doall.Config.Model != DOALL || pdoall.Config.Model != PDOALL {
		return fmt.Errorf("invariant: ordering check wants DOALL vs PDOALL, got %s vs %s",
			doall.Config, pdoall.Config)
	}
	df, pf := doall.Config, pdoall.Config
	if df.Reduc != pf.Reduc || df.Dep != pf.Dep || df.Fn != pf.Fn {
		return fmt.Errorf("invariant: ordering check flags differ: %s vs %s", df, pf)
	}
	if doall.SerialCost != pdoall.SerialCost {
		return fmt.Errorf("invariant: serial cost differs across models: %d vs %d (nondeterministic run?)",
			doall.SerialCost, pdoall.SerialCost)
	}
	if pdoall.ParallelCost > doall.ParallelCost {
		return fmt.Errorf("invariant: PDOALL parallel cost %d exceeds DOALL's %d under flags %s",
			pdoall.ParallelCost, doall.ParallelCost, df)
	}
	return nil
}
