package bench

// Run-once sweep batching: cells of one sweep that share a benchmark share
// one execution through core.MultiRun (the §III-A/§III-B split — the event
// stream is configuration-independent). The harness claims the missing
// cells of a benchmark under its lock, runs them as one batch, and fills
// every claimed cell from the shared event stream; cells already cached or
// in flight are joined exactly as before.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"loopapalooza/internal/core"
)

// Stats counts the work a harness performed and the work fan-out batching
// avoided. Executions is interpreter runs actually performed; Cells is the
// number of cells those runs materialized; Saved is the executions a
// one-run-per-cell harness would have needed on top (Cells - Executions,
// ignoring retries). Traces counts event-trace files recorded.
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
// flight. Benchmarks with a run hook (fault-injection seam) and
// single-config sweeps take the per-cell path.
func (h *Harness) sweepBench(ctx context.Context, b *Benchmark, cfgs []core.Config, analysisErr error) []Cell {
	out := make([]Cell, len(cfgs))
	if analysisErr != nil || ctx.Err() != nil || b.runHook != nil || len(cfgs) < 2 {
		for i, cfg := range cfgs {
			out[i] = h.sweepCell(ctx, b, cfg, analysisErr)
		}
		return out
	}

	// Claim the missing cells under the lock: the claimer executes them as
	// one batch, everyone else joins the existing cells (singleflight,
	// exactly as in the per-cell path).
	type claim struct {
		i int
		c *cell
	}
	var owned []claim
	h.mu.Lock()
	joined := make([]*cell, len(cfgs))
	for i, cfg := range cfgs {
		k := key(b, cfg)
		if c := h.cells[k]; c != nil {
			joined[i] = c
			continue
		}
		c := &cell{bench: b, cfg: cfg, done: make(chan struct{})}
		h.cells[k] = c
		owned = append(owned, claim{i: i, c: c})
	}
	h.mu.Unlock()

	if len(owned) > 0 {
		// Invalid configurations fail exactly as their per-config Run
		// would, without poisoning the batch.
		batch := owned[:0:0]
		for _, cl := range owned {
			if err := cl.c.cfg.Validate(); err != nil {
				cl.c.err, cl.c.attempts = err, 1
				h.finishCell(cl.c)
				continue
			}
			batch = append(batch, cl)
		}
		if len(batch) > 0 {
			bcfgs := make([]core.Config, len(batch))
			for i, cl := range batch {
				bcfgs[i] = cl.c.cfg
			}
			reps, err, attempts := h.runBatch(ctx, b, bcfgs)
			for i, cl := range batch {
				if err == nil {
					cl.c.report = reps[i]
				} else {
					cl.c.err = err
				}
				cl.c.attempts = attempts
				h.finishCell(cl.c)
			}
		}
	}

	for i, cfg := range cfgs {
		c := joined[i]
		if c == nil {
			for _, cl := range owned {
				if cl.i == i {
					c = cl.c
				}
			}
		}
		<-c.done
		out[i] = Cell{Bench: b.Name, Config: cfg,
			Report: c.report, Err: c.err, Outcome: core.Classify(c.err), Attempts: c.attempts}
	}
	return out
}

// finishCell publishes a completed cell, forgetting it when it was
// canceled so a later sweep can retry (same policy as the per-cell path).
func (h *Harness) finishCell(c *cell) {
	if errors.Is(c.err, core.ErrCanceled) {
		h.mu.Lock()
		delete(h.cells, key(c.bench, c.cfg))
		h.mu.Unlock()
	}
	close(c.done)
}

// runBatch executes one benchmark once for a batch of configurations,
// recording a trace when the harness asks for one, retrying once on a
// transient failure, and keeping the dedup counters.
func (h *Harness) runBatch(ctx context.Context, b *Benchmark, cfgs []core.Config) ([]*core.Report, error, int) {
	reps, err := h.batchOnce(ctx, b, cfgs)
	attempts := 1
	if err != nil && h.opts.RetryTransient && transient(err) {
		reps, err = h.batchOnce(ctx, b, cfgs)
		attempts = 2
	}
	h.mu.Lock()
	h.stats.Executions += int64(attempts)
	h.stats.Cells += int64(len(cfgs))
	h.stats.Saved += int64(len(cfgs) - 1)
	h.mu.Unlock()
	return reps, err, attempts
}

// batchOnce is one fan-out execution attempt.
func (h *Harness) batchOnce(ctx context.Context, b *Benchmark, cfgs []core.Config) ([]*core.Report, error) {
	info, err := b.Analyze()
	if err != nil {
		return nil, err
	}
	opts := h.opts.Run
	if ctx != nil {
		opts.Ctx = ctx
	}
	var trace *traceFile
	if h.opts.TraceDir != "" {
		trace = newTraceFile(h.opts.TraceDir, b, opts)
		opts.Trace = &trace.buf
	}
	reps, err := core.MultiRun(info, cfgs, opts)
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
