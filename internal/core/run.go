package core

import (
	"context"
	"io"
	"time"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/bytecode"
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
	// Trace, when non-nil, receives the binary event trace of the
	// execution (see TraceWriter), which ReplayTrace can later evaluate
	// under any configuration without re-executing. A trace write failure
	// fails the run; the resource budgets above are enforced while
	// recording.
	Trace io.Writer
	// Parallelism is MultiRun's fan-out width: 0 (auto) shares GOMAXPROCS
	// among the runs in flight when the run starts (Run, MultiRun and
	// trace replay calls alike), so a lone run gets one worker per CPU and
	// a run inside an already saturated sweep replays inline; 1 replays
	// every engine on the interpreting goroutine; larger values are used
	// as given. Every width is clamped to the number of coalesced engine
	// classes, and sets below FanoutThreshold configurations always use
	// one worker. Configurations that form one class, as Run's one always
	// does, feed that engine event by event. Reports and recorded traces
	// are bit-identical at every value.
	Parallelism int

	// oracle is nil in production. Tests set it (export_test.go) to run
	// the reference implementations this pipeline is checked against.
	oracle *oracle
}

// oracle swaps test-only reference implementations into a run; a nil
// field keeps the production one.
type oracle struct {
	// exec executes main in place of the bytecode VM: the tree-walking
	// interpreter.
	exec func(info *analysis.ModuleInfo, cfg interp.Config, args []interp.Val) (interp.Result, error)
	// tracker builds each engine's dependence tracker in place of the
	// shadow tracker: the map tracker.
	tracker func() depTracker
}

// newEngine builds the engine of one configuration: on the shadow
// tracker, or on the oracle's tracker.
func (o *oracle) newEngine(info *analysis.ModuleInfo, cfg Config) *Engine {
	if o == nil || o.tracker == nil {
		return NewEngine(info, cfg)
	}
	return newEngine(info, cfg, o.tracker())
}

// execute runs main on the bytecode VM, or on the oracle's executor,
// firing the hook stream into cfg.Hooks.
func (o *oracle) execute(info *analysis.ModuleInfo, cfg interp.Config, args []interp.Val) (interp.Result, error) {
	if o != nil && o.exec != nil {
		return o.exec(info, cfg, args)
	}
	prog, err := bytecode.For(info)
	if err != nil {
		return interp.Result{}, err
	}
	return bytecode.NewVM(prog, cfg).Run("main", args...)
}

// Run executes the analyzed module's main function under one configuration
// and returns the limit-study report: what MultiRun returns for that one
// configuration. On failure the returned error matches exactly one
// taxonomy sentinel (ErrStepLimit, ErrMemLimit, ErrDeadline, ErrCanceled,
// ErrRuntime) under errors.Is; other failures (bad configuration, a
// recovered *PanicError) classify as OutcomeError.
func Run(info *analysis.ModuleInfo, cfg Config, opts RunOptions) (*Report, error) {
	reps, err := MultiRun(info, []Config{cfg}, opts)
	if err != nil {
		return nil, err
	}
	return reps[0], nil
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
