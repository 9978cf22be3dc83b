package bench

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"loopapalooza/internal/core"
)

// Harness is the fault-isolated sweep engine: it runs benchmark ×
// configuration cells concurrently, one execution per benchmark shared by
// the cells it still needs (fanout.go), deduplicates in-flight cells with
// per-cell singleflight locking, recovers worker panics into per-cell
// errors, enforces the configured resource budgets, and caches every
// outcome so regenerating several figures shares work.
type Harness struct {
	opts HarnessOptions

	mu    sync.Mutex
	cells map[string]*cell
	stats Stats
}

// HarnessOptions configures the sweep engine.
type HarnessOptions struct {
	// Run carries the per-cell resource budgets (MaxSteps, Timeout,
	// MaxHeapCells) applied to every benchmark execution.
	Run core.RunOptions
	// RetryTransient retries a failed cell once when the failure looks
	// transient (a recovered panic), before recording it.
	RetryTransient bool
	// Workers bounds sweep concurrency (0 = GOMAXPROCS).
	Workers int
	// TraceDir, when set, records the event stream of every execution (a
	// Report miss and a one-configuration sweep included) as a binary
	// trace file (TraceFileName) in this directory.
	TraceDir string
}

// cell is one (benchmark, configuration) slot. The sweep that claims the
// cell runs it in its benchmark's batch; everyone else waits on done
// (singleflight).
type cell struct {
	bench    *Benchmark
	cfg      core.Config
	done     chan struct{}
	report   *core.Report
	err      error
	attempts int
}

// Cell is the recorded outcome of one (benchmark, configuration) cell.
type Cell struct {
	// Bench is the benchmark name.
	Bench string
	// Config is the configuration.
	Config core.Config
	// Report is the completed report (nil on failure).
	Report *core.Report
	// Err is the per-cell error (nil on success).
	Err error
	// Outcome classifies Err into the failure taxonomy.
	Outcome core.Outcome
	// Attempts counts executions of the cell (2 after a transient retry,
	// 0 when it failed before any ran).
	Attempts int
}

// NewHarness returns an empty harness with default options.
func NewHarness() *Harness { return NewHarnessWith(HarnessOptions{}) }

// NewHarnessWith returns an empty harness with the given budgets and
// sweep policy.
func NewHarnessWith(o HarnessOptions) *Harness {
	return &Harness{opts: o, cells: map[string]*cell{}}
}

func key(b *Benchmark, cfg core.Config) string { return b.Name + "|" + cfg.String() }

// Report runs (or recalls) one benchmark under one configuration, as a
// batch of one under the harness context. Concurrent callers of the same
// cell share a single execution.
func (h *Harness) Report(b *Benchmark, cfg core.Config) (*core.Report, error) {
	ctx := h.opts.Run.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	c := h.sweepBench(ctx, b, []core.Config{cfg})[0]
	return c.Report, c.Err
}

// transient reports whether a failure is worth one retry: recovered
// panics may be environmental, while budget trips and guest faults are
// deterministic.
func transient(err error) bool { return errors.Is(err, core.ErrPanic) }

// SweepResult is the outcome of one sweep: every cell, successful or not,
// plus aggregate counts by taxonomy outcome.
type SweepResult struct {
	// Cells holds one entry per (benchmark, configuration) pair, in
	// benches × cfgs order.
	Cells []Cell
	// Counts tallies cells by outcome.
	Counts map[core.Outcome]int
}

// Sweep runs every (benchmark, configuration) pair concurrently under the
// harness budgets, honoring ctx for sweep-wide cancellation. No failure
// aborts the sweep and no worker panic escapes: every cell completes with
// a classified outcome, and completed work is never discarded.
func (h *Harness) Sweep(ctx context.Context, benches []*Benchmark, cfgs []core.Config) *SweepResult {
	if ctx == nil {
		ctx = context.Background()
	}
	// One job per benchmark: all of a benchmark's cells share one
	// execution through the fan-out layer, so the unit of scheduling is
	// the unit of execution.
	type job struct {
		i int
		b *Benchmark
	}
	out := make([]Cell, len(benches)*len(cfgs))

	workers := h.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ch := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				copy(out[j.i*len(cfgs):], h.sweepBench(ctx, j.b, cfgs))
			}
		}()
	}
	for i, b := range benches {
		ch <- job{i: i, b: b}
	}
	close(ch)
	wg.Wait()

	sr := &SweepResult{Cells: out, Counts: map[core.Outcome]int{}}
	for _, c := range out {
		sr.Counts[c.Outcome]++
	}
	return sr
}

// OK counts successful cells.
func (sr *SweepResult) OK() int { return sr.Counts[core.OutcomeOK] }

// Failed returns the failed cells, in sweep order.
func (sr *SweepResult) Failed() []Cell {
	var out []Cell
	for _, c := range sr.Cells {
		if c.Err != nil {
			out = append(out, c)
		}
	}
	return out
}

// Err joins every per-cell error (nil when the whole sweep succeeded).
// Callers that want the per-cell detail should use Failed instead.
func (sr *SweepResult) Err() error {
	var errs []error
	for _, c := range sr.Cells {
		if c.Err != nil {
			errs = append(errs, c.Err)
		}
	}
	return errors.Join(errs...)
}

// Summary renders the aggregate outcome counts, e.g.
// "68/70 cells ok (1 step-limit, 1 panic)".
func (sr *SweepResult) Summary() string {
	var parts []string
	for o := core.OutcomeStepLimit; o <= core.OutcomeError; o++ {
		if n := sr.Counts[o]; n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, o))
		}
	}
	s := fmt.Sprintf("%d/%d cells ok", sr.OK(), len(sr.Cells))
	if len(parts) > 0 {
		s += " (" + strings.Join(parts, ", ") + ")"
	}
	return s
}

// CellStats is a snapshot of the harness's recorded cells — the gauge the
// serving layer exports so a live lpd shows how much sweep work its
// resident harness has already amortized.
type CellStats struct {
	// Total counts every cell ever started (including in-flight).
	Total int
	// Done counts completed cells.
	Done int
	// Failed counts completed cells that recorded an error.
	Failed int
}

// CellStats snapshots the harness cell cache.
func (h *Harness) CellStats() CellStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := CellStats{Total: len(h.cells)}
	for _, c := range h.cells {
		select {
		case <-c.done:
			st.Done++
			if c.err != nil {
				st.Failed++
			}
		default:
		}
	}
	return st
}

// Failures returns every failed cell the harness has recorded so far
// (across all sweeps and Report calls), sorted by benchmark then
// configuration. In-flight cells are skipped.
func (h *Harness) Failures() []Cell {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []Cell
	for _, c := range h.cells {
		select {
		case <-c.done:
		default:
			continue
		}
		if c.err != nil {
			out = append(out, Cell{
				Bench: c.bench.Name, Config: c.cfg,
				Err: c.err, Outcome: core.Classify(c.err), Attempts: c.attempts,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bench != out[j].Bench {
			return out[i].Bench < out[j].Bench
		}
		return out[i].Config.String() < out[j].Config.String()
	})
	return out
}

// FormatFailureSummary renders failed cells as the failure-summary footer
// of the CLIs ("" when there is nothing to report).
func FormatFailureSummary(cells []Cell) string {
	if len(cells) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "failure summary: %d cell(s) did not complete\n", len(cells))
	for _, c := range cells {
		fmt.Fprintf(&b, "  %-16s %-28s %-13s %v\n", c.Bench, c.Config.String(), c.Outcome, c.Err)
	}
	return b.String()
}
