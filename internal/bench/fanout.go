package bench

// Run-once sweep batching, the harness's one execution path: the cells of
// one benchmark share one execution through core.MultiRun (the
// §III-A/§III-B split — the event stream is configuration-independent).
// The harness claims the missing cells of a benchmark under its lock, runs
// them as one batch, and fills every claimed cell from the shared event
// stream; cells already cached or in flight are joined. A Report miss is a
// batch of one.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/core"
)

// Stats counts the work a harness performed and the work fan-out batching
// avoided. Executions is interpreter runs actually performed (a retry is a
// second one; a benchmark that fails to analyze runs nothing); Cells is the
// number of cells those runs materialized, a retried cell counted once;
// Saved is the executions a one-run-per-cell harness would have needed on
// top (Cells - Executions, ignoring retries). Traces counts event-trace
// files recorded.
type Stats struct {
	Executions int64
	Cells      int64
	Saved      int64
	Traces     int64
}

// Stats snapshots the execution-dedup counters.
func (h *Harness) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stats
}

// sweepBench materializes every cell of one benchmark, sharing a single
// execution across the configurations that are not already cached or in
// flight.
func (h *Harness) sweepBench(ctx context.Context, b *Benchmark, cfgs []core.Config) []Cell {
	// Claim the missing cells under the lock: the claimer executes them as
	// one batch, everyone else joins the existing cells (singleflight).
	cells := make([]*cell, len(cfgs))
	var batch []*cell
	h.mu.Lock()
	for i, cfg := range cfgs {
		k := key(b, cfg)
		c := h.cells[k]
		if c == nil {
			c = &cell{bench: b, cfg: cfg, done: make(chan struct{})}
			h.cells[k] = c
			batch = append(batch, c)
		}
		cells[i] = c
	}
	h.mu.Unlock()

	// Invalid configurations fail exactly as their per-config Run would,
	// without poisoning the batch.
	valid := batch[:0]
	for _, c := range batch {
		if err := c.cfg.Validate(); err != nil {
			c.err = err
			h.finishCell(c)
			continue
		}
		valid = append(valid, c)
	}
	if len(valid) > 0 {
		bcfgs := make([]core.Config, len(valid))
		for i, c := range valid {
			bcfgs[i] = c.cfg
		}
		reps, err, attempts := h.runBatch(ctx, b, bcfgs)
		for i, c := range valid {
			if err == nil {
				c.report = reps[i]
			} else {
				c.err = err
			}
			c.attempts = attempts
			h.finishCell(c)
		}
	}

	out := make([]Cell, len(cfgs))
	for i, c := range cells {
		<-c.done
		out[i] = Cell{Bench: b.Name, Config: cfgs[i],
			Report: c.report, Err: c.err, Outcome: core.Classify(c.err), Attempts: c.attempts}
	}
	return out
}

// finishCell publishes a completed cell, forgetting it when it was
// canceled: cancellation is a property of the sweep, not the cell, so a
// later sweep can retry.
func (h *Harness) finishCell(c *cell) {
	if errors.Is(c.err, core.ErrCanceled) {
		h.mu.Lock()
		delete(h.cells, key(c.bench, c.cfg))
		h.mu.Unlock()
	}
	close(c.done)
}

// runBatch executes one benchmark once for a batch of configurations,
// retrying once on a transient failure, and keeps the dedup counters. It
// returns the number of executions it ran: none when ctx is already done
// or the benchmark fails to analyze.
func (h *Harness) runBatch(ctx context.Context, b *Benchmark, cfgs []core.Config) ([]*core.Report, error, int) {
	if ctx.Err() != nil {
		return nil, fmt.Errorf("bench %s: %w", b.Name, core.ErrCanceled), 0
	}
	info, err := b.Analyze()
	if err != nil {
		return nil, err, 0
	}
	reps, err := h.batchOnce(ctx, b, info, cfgs)
	attempts := 1
	if err != nil && h.opts.RetryTransient && transient(err) {
		reps, err = h.batchOnce(ctx, b, info, cfgs)
		attempts = 2
	}
	h.mu.Lock()
	h.stats.Executions += int64(attempts)
	h.stats.Cells += int64(len(cfgs))
	h.stats.Saved += int64(len(cfgs) - 1)
	h.mu.Unlock()
	return reps, err, attempts
}

// batchOnce is one execution attempt: core.MultiRun, or the benchmark's
// run hook in its place, with a panic converted into a per-batch
// *core.PanicError instead of crashing the process.
func (h *Harness) batchOnce(ctx context.Context, b *Benchmark, info *analysis.ModuleInfo, cfgs []core.Config) (reps []*core.Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			reps, err = nil, fmt.Errorf("bench %s: %w", b.Name,
				&core.PanicError{Val: p, Stack: string(debug.Stack())})
		}
	}()
	opts := h.opts.Run
	opts.Ctx = ctx
	var trace *traceFile
	if h.opts.TraceDir != "" {
		trace = newTraceFile(h.opts.TraceDir, b, opts)
		opts.Trace = &trace.buf
	}
	if b.runHook != nil {
		reps, err = b.runHook(cfgs, opts)
	} else {
		reps, err = core.MultiRun(info, cfgs, opts)
	}
	if err != nil {
		return nil, err
	}
	if trace != nil {
		if err := trace.write(); err != nil {
			return nil, fmt.Errorf("bench %s: %w", b.Name, err)
		}
		h.mu.Lock()
		h.stats.Traces++
		h.mu.Unlock()
	}
	return reps, nil
}

// traceFile accumulates one benchmark's event trace in memory (so a sink
// failure cannot corrupt the run) and writes it atomically afterwards.
type traceFile struct {
	path string
	buf  bytes.Buffer
}

func newTraceFile(dir string, b *Benchmark, opts core.RunOptions) *traceFile {
	return &traceFile{path: filepath.Join(dir, TraceFileName(b.Name, b.Source, opts))}
}

func (t *traceFile) write() error {
	tmp := t.path + ".tmp"
	if err := os.WriteFile(tmp, t.buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, t.path)
}

// TraceFileName is the canonical trace file name for one benchmark
// execution: the benchmark name plus a short hash of the source and the
// record-time budgets, so stale traces are never confused with current
// ones (the trace format itself only checks the loop count).
func TraceFileName(name, source string, opts core.RunOptions) string {
	sum := sha256.Sum256(fmt.Appendf(nil, "%s\x00%d\x00%d", source, opts.MaxSteps, opts.MaxHeapCells))
	return fmt.Sprintf("%s-%x.lptrace", strings.ReplaceAll(name, string(filepath.Separator), "_"), sum[:4])
}
