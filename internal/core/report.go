package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"loopapalooza/internal/predict"
)

// LoopReport summarizes one static loop under one configuration.
type LoopReport struct {
	// ID is "function:header".
	ID string `json:"id"`
	// Depth is the nesting depth (1 = outermost).
	Depth int `json:"depth"`
	// Parallel reports whether the loop ended the run still considered
	// parallelizable.
	Parallel bool `json:"parallel"`
	// Reason explains serialization (SerialNone when parallel).
	Reason SerialReason `json:"reason"`
	// StaticallySerial distinguishes Table II rejections from dynamic
	// discoveries.
	StaticallySerial bool `json:"staticallySerial"`
	// Instances / ParallelInstances / Iters / ConflictIters /
	// SerialTicks aggregate dynamic behaviour.
	Instances         int64 `json:"instances"`
	ParallelInstances int64 `json:"parallelInstances"`
	Iters             int64 `json:"iters"`
	ConflictIters     int64 `json:"conflictIters"`
	SerialTicks       int64 `json:"serialTicks"`
	// Computable / Reductions / NonComputable are the static register
	// LCD counts (Table I).
	Computable    int `json:"computable"`
	Reductions    int `json:"reductions"`
	NonComputable int `json:"nonComputable"`
	// PredHitRate is the hybrid predictor hit rate over the loop's
	// observed LCDs (NaN-free: 0 when nothing was observed).
	PredHitRate float64 `json:"predHitRate"`
	// Delta and Slowest echo the engine's HELIX diagnostics.
	Delta   int64 `json:"delta"`
	Slowest int64 `json:"slowest"`
}

// ConflictIterRate returns the fraction of iterations that conflicted.
func (lr *LoopReport) ConflictIterRate() float64 {
	if lr.Iters == 0 {
		return 0
	}
	return float64(lr.ConflictIters) / float64(lr.Iters)
}

// Report is the outcome of one limit-study run.
type Report struct {
	// Benchmark names the program.
	Benchmark string `json:"benchmark"`
	// Config is the configuration that produced the report.
	Config Config `json:"config"`
	// SerialCost is the dynamic IR instruction count of the sequential
	// execution (the baseline).
	SerialCost int64 `json:"serialCost"`
	// ParallelCost is the limit-study parallel time.
	ParallelCost int64 `json:"parallelCost"`
	// CoveredTicks is the serial time spent inside parallel loops.
	CoveredTicks int64 `json:"coveredTicks"`
	// Loops reports every static loop, outer first.
	Loops []LoopReport `json:"loops"`
	// Census tallies Table I dependency categories.
	Census DepCensus `json:"census"`
	// Anomalies counts loop hook events the engine could not attribute
	// (mismatched or underflowing Enter/Iter/Exit sequences). All zero on
	// a healthy run.
	Anomalies LoopEventAnomalies `json:"anomalies"`
}

// Speedup returns SerialCost / ParallelCost.
func (r *Report) Speedup() float64 {
	if r.ParallelCost <= 0 {
		return 1
	}
	return float64(r.SerialCost) / float64(r.ParallelCost)
}

// Coverage returns the fraction of dynamic instructions executed within
// parallel loops (Figure 5's metric).
func (r *Report) Coverage() float64 {
	if r.SerialCost <= 0 {
		return 0
	}
	return float64(r.CoveredTicks) / float64(r.SerialCost)
}

// Report builds the final report after the run completed.
func (e *Engine) Report(benchmark string) *Report {
	r := &Report{
		Benchmark:    benchmark,
		Config:       e.cfg,
		SerialCost:   e.SerialCost(),
		ParallelCost: e.ParallelCost(),
		CoveredTicks: e.CoveredTicks(),
		Anomalies:    e.anomalies,
	}
	metas := e.info.Loops
	if len(metas) > 0 {
		r.Loops = make([]LoopReport, 0, len(metas))
	}
	for _, lm := range metas {
		st := e.stats[lm]
		if st == nil {
			continue
		}
		lr := LoopReport{
			ID:                lm.ID(),
			Depth:             lm.Loop.Depth,
			Parallel:          st.Reason == SerialNone,
			Reason:            st.Reason,
			StaticallySerial:  st.StaticallySerial,
			Instances:         st.Instances,
			ParallelInstances: st.ParallelInstances,
			Iters:             st.Iters,
			ConflictIters:     st.ConflictIters,
			SerialTicks:       st.SerialTicks,
			Computable:        len(lm.Computable),
			Reductions:        len(lm.Reductions),
			NonComputable:     len(lm.NonComputable),
			Delta:             st.LastDelta,
			Slowest:           st.LastSlowest,
		}
		// Predictor hit rate across this loop's observed LCDs.
		var correct, total int64
		for _, p := range st.preds {
			if h, ok := p.(*predict.Hybrid); ok {
				c, t := h.Stats()
				correct += c
				total += t
			}
		}
		if total > 0 {
			lr.PredHitRate = float64(correct) / float64(total)
		}
		r.Loops = append(r.Loops, lr)

		// Table I census.
		r.Census.Add(DepComputable, int64(len(lm.Computable)))
		r.Census.Add(DepReduction, int64(len(lm.Reductions)))
		if len(lm.NonComputable) > 0 {
			if lr.PredHitRate >= PredictableHitRate {
				r.Census.Add(DepPredictableReg, int64(len(lm.NonComputable)))
			} else {
				r.Census.Add(DepUnpredictableReg, int64(len(lm.NonComputable)))
			}
		}
		if st.ConflictIters > 0 && st.Iters > 0 {
			if float64(st.ConflictIters) >= FrequentLCDThreshold*float64(st.Iters) {
				r.Census.Add(DepMemFrequent, 1)
			} else {
				r.Census.Add(DepMemInfrequent, 1)
			}
		}
		if lm.HasCall {
			r.Census.Add(DepStructural, 1)
		}
	}
	slices.SortStableFunc(r.Loops, func(a, b LoopReport) int { return cmp.Compare(b.SerialTicks, a.SerialTicks) })
	return r
}

// String renders a human-readable report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s under %s\n", r.Benchmark, r.Config)
	fmt.Fprintf(&b, "  serial cost   %12d IR instructions\n", r.SerialCost)
	fmt.Fprintf(&b, "  parallel cost %12d IR instructions\n", r.ParallelCost)
	fmt.Fprintf(&b, "  speedup       %12.2fx\n", r.Speedup())
	fmt.Fprintf(&b, "  coverage      %11.1f%% of dynamic instructions in parallel loops\n", 100*r.Coverage())
	if n := r.Anomalies.Total(); n > 0 {
		fmt.Fprintf(&b, "  WARNING: %d unattributable loop events (iter %d/%d, exit %d/%d mismatch/underflow)\n",
			n, r.Anomalies.IterMismatch, r.Anomalies.IterNoActive,
			r.Anomalies.ExitMismatch, r.Anomalies.ExitNoActive)
	}
	if len(r.Loops) > 0 {
		fmt.Fprintf(&b, "  loops (by serial weight):\n")
		for i, lr := range r.Loops {
			if i == 12 {
				fmt.Fprintf(&b, "    ... %d more\n", len(r.Loops)-i)
				break
			}
			status := "parallel"
			if !lr.Parallel {
				status = "serial: " + lr.Reason.String()
			}
			fmt.Fprintf(&b, "    %-28s d%d %10d ticks %8d iters  conflicts %5.1f%%  pred %4.0f%%  delta %3d/%-3d  %s\n",
				lr.ID, lr.Depth, lr.SerialTicks, lr.Iters,
				100*lr.ConflictIterRate(), 100*lr.PredHitRate, lr.Delta, lr.Slowest, status)
		}
	}
	return b.String()
}
