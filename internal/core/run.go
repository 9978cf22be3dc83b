package core

import (
	"context"
	"fmt"
	"io"
	"runtime/debug"
	"time"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/diag"
	"loopapalooza/internal/interp"
	"loopapalooza/internal/lang"
)

// RunOptions controls one limit-study execution.
type RunOptions struct {
	// Out receives program output (nil discards).
	Out io.Writer
	// MaxSteps bounds execution (0 = interpreter default).
	MaxSteps int64
	// MaxHeapCells bounds the simulated heap in 64-bit cells (0 =
	// interpreter default). Exceeding it fails the run with ErrMemLimit.
	MaxHeapCells int64
	// Ctx, when non-nil, cancels the run mid-execution (ErrCanceled, or
	// ErrDeadline when the context deadline expired).
	Ctx context.Context
	// Timeout, when positive, bounds the run's wall-clock time
	// (ErrDeadline on expiry).
	Timeout time.Duration
	// EntryArgs are passed to main (usually none).
	EntryArgs []interp.Val
	// Tracker selects the dependence-tracking implementation. The zero
	// value is the shadow-memory tracker; TrackerLegacyMap keeps the
	// original map-based write sets (differential-oracle runs).
	Tracker TrackerKind
	// Engine selects the execution engine. The zero value is the bytecode
	// VM; EngineTreewalk keeps the original IR walker
	// (differential-oracle runs).
	Engine EngineKind
	// Trace, when non-nil, receives the binary event trace of the
	// execution (see TraceWriter), which ReplayTrace can later evaluate
	// under any configuration without re-executing. A trace write failure
	// fails the run; the resource budgets above are enforced while
	// recording.
	Trace io.Writer
	// Parallelism is MultiRun's fan-out width: 0 (auto) means one worker
	// per available CPU (GOMAXPROCS), 1 replays every engine on the
	// interpreting goroutine, larger values are clamped to the number of
	// coalesced engine classes, and sets below FanoutThreshold
	// configurations always use one worker. Reports and recorded traces
	// are bit-identical at every value.
	Parallelism int
}

// Run executes the analyzed module's main function under one configuration
// and returns the limit-study report. On failure the returned error
// matches exactly one taxonomy sentinel (ErrStepLimit, ErrMemLimit,
// ErrDeadline, ErrCanceled, ErrRuntime) under errors.Is; other failures
// (bad configuration) classify as OutcomeError.
func Run(info *analysis.ModuleInfo, cfg Config, opts RunOptions) (rep *Report, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// The interpreter and engine hooks are panic-free by design, but a bug
	// there must not crash the embedding process (CLI, sweep worker,
	// fuzzer): convert any escaping panic into a classified *PanicError.
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, fmt.Errorf("core: %s: %w", info.Mod.Name,
				&PanicError{Val: r, Stack: string(debug.Stack())})
		}
	}()
	engine := NewEngineTracker(info, cfg, opts.Tracker)
	var hooks interp.Hooks = engine
	tw := traceSink(info, opts)
	if tw != nil {
		hooks = &multiHooks{hs: []interp.Hooks{engine, tw}}
	}
	err = interpret(info, opts, hooks)
	if err == nil && tw != nil {
		if cerr := tw.Close(); cerr != nil {
			err = fmt.Errorf("core: %s: writing trace: %w", info.Mod.Name, cerr)
		}
	}
	if err == nil {
		rep = engine.Report(info.Mod.Name)
	}
	// A panic never reaches this line, so a panicked run's pages are left
	// to the GC.
	engine.sh.release()
	return rep, err
}

// RunSource compiles LPC source, analyzes it, and runs the limit study —
// the one-call entry point used by the CLI, examples, and benches.
func RunSource(name, src string, cfg Config, opts RunOptions) (*Report, error) {
	info, err := AnalyzeSource(name, src)
	if err != nil {
		return nil, err
	}
	return Run(info, cfg, opts)
}

// AnalyzeSource compiles and canonicalizes LPC source, returning the
// compile-time analysis. Reuse the result across configurations: the
// analysis is configuration-independent.
//
// Like lang.Compile, AnalyzeSource never exits via panic: a panic escaping
// the mid-end pipeline is converted into a *diag.ICE naming the "analysis"
// stage and carrying the source as a reproducer.
func AnalyzeSource(name, src string) (info *analysis.ModuleInfo, err error) {
	m, err := lang.Compile(name, src)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			info, err = nil, diag.NewICE(name, "analysis", src, r)
		}
	}()
	info, aerr := analysis.AnalyzeModule(m)
	if aerr != nil {
		// The module verified after codegen, so a pass breaking it is a
		// compiler bug, not a user error.
		return nil, diag.NewICE(name, "analysis", src, aerr)
	}
	return info, nil
}
