// Package loopapalooza is a from-scratch Go reproduction of
// "Loopapalooza: Investigating Limits of Loop-Level Parallelism with a
// Compiler-Driven Approach" (Zaidi, Iordanou, Luján, Gabrielli — ISPASS
// 2021).
//
// It provides the paper's complete pipeline as a library:
//
//   - an LPC (mini-C) front end and a typed SSA IR standing in for LLVM;
//   - the compile-time component: loop canonicalization, mem2reg, scalar
//     evolution, reduction recognition, and purity analysis;
//   - the run-time component: an instrumenting interpreter driving the
//     limit-study engine with the DOALL / Partial-DOALL / HELIX execution
//     models, Table II configuration flags, and the four value predictors;
//   - the synthetic SPEC/EEMBC-like benchmark suites and the harness that
//     regenerates Figures 2-5 of the paper.
//
// Quick start:
//
//	report, err := loopapalooza.Study("prog", src,
//		loopapalooza.Config{Model: loopapalooza.HELIX, Reduc: 1, Dep: 1, Fn: 2})
//	fmt.Printf("limit speedup: %.2fx\n", report.Speedup())
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record.
package loopapalooza

import (
	"errors"
	"io"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/bench"
	"loopapalooza/internal/cluster"
	"loopapalooza/internal/core"
)

// Config is a limit-study configuration (the paper's Table II flags plus
// the execution model).
type Config = core.Config

// Model selects the parallel execution model.
type Model = core.Model

// The three execution models of the paper (§II-C).
const (
	DOALL  = core.DOALL
	PDOALL = core.PDOALL
	HELIX  = core.HELIX
)

// Report is the outcome of one limit-study run: limit speedup, dynamic
// coverage, per-loop classification, and the Table I dependency census.
type Report = core.Report

// LoopReport summarizes one static loop under a configuration.
type LoopReport = core.LoopReport

// ModuleInfo is the reusable compile-time analysis of one program.
type ModuleInfo = analysis.ModuleInfo

// Benchmark is one kernel of the synthetic SPEC/EEMBC-like suites.
type Benchmark = bench.Benchmark

// Suite identifies a benchmark suite.
type Suite = bench.Suite

// ParseConfig parses "reduc1-dep1-fn2 HELIX"-style configuration strings.
func ParseConfig(s string) (Config, error) { return core.ParseConfig(s) }

// PaperConfigs returns the fourteen configurations of Figures 2 and 3, in
// presentation order.
func PaperConfigs() []Config { return core.PaperConfigs() }

// BestPDOALL returns the best realistic Partial-DOALL configuration
// (reduc1-dep2-fn2), per Figure 4.
func BestPDOALL() Config { return core.BestPDOALL() }

// BestHELIX returns the best realistic HELIX configuration
// (reduc1-dep1-fn2), per Figure 4.
func BestHELIX() Config { return core.BestHELIX() }

// Analyze compiles LPC source and runs the full compile-time component
// (canonicalization, SSA promotion, SCEV, reductions, purity). The result
// can be reused across configurations.
func Analyze(name, src string) (*ModuleInfo, error) {
	return core.AnalyzeSource(name, src)
}

// RunOptions carries the resource budgets and cancellation context of a
// run: MaxSteps (dynamic instruction budget), Timeout / Ctx (wall-clock
// and cooperative cancellation), MaxHeapCells (simulated heap budget),
// Out (program output), Trace (event-trace sink) and Parallelism
// (StudyMany's fan-out width: 0 shares GOMAXPROCS among the runs in
// flight, single-config ones and trace replays included, 1 replays every
// configuration on the calling goroutine; reports are bit-identical at
// every width). Every run
// executes on the bytecode VM with the shadow-memory dependence tracker;
// there is no engine or tracker to choose.
type RunOptions = core.RunOptions

// Outcome classifies a run failure into the taxonomy (see Classify). It
// serializes to stable slugs ("ok", "step-limit", ...) via
// encoding.TextMarshaler, and Outcome.ExitCode gives the process exit
// code contract shared by cmd/lpa and the lpd service (0, 3-7).
type Outcome = core.Outcome

// ParseOutcome is the inverse of Outcome.String: it parses the stable
// slug form used on the wire and in logs.
func ParseOutcome(s string) (Outcome, error) { return core.ParseOutcome(s) }

// The taxonomy outcomes.
const (
	OutcomeOK           = core.OutcomeOK
	OutcomeStepLimit    = core.OutcomeStepLimit
	OutcomeMemLimit     = core.OutcomeMemLimit
	OutcomeTimeout      = core.OutcomeTimeout
	OutcomeCanceled     = core.OutcomeCanceled
	OutcomePanic        = core.OutcomePanic
	OutcomeRuntimeError = core.OutcomeRuntimeError
	OutcomeError        = core.OutcomeError
)

// The failure taxonomy. Every error returned by Study/StudyAnalyzed
// matches exactly one sentinel under errors.Is; a zero RunOptions imposes
// only the default step and heap budgets.
var (
	// ErrStepLimit: the dynamic instruction budget was exhausted.
	ErrStepLimit = core.ErrStepLimit
	// ErrMemLimit: a memory budget tripped (heap cells or stack words).
	ErrMemLimit = core.ErrMemLimit
	// ErrDeadline: the wall-clock deadline or timeout passed mid-run
	// (also matches context.DeadlineExceeded).
	ErrDeadline = core.ErrDeadline
	// ErrCanceled: the run's context was canceled mid-run (also matches
	// context.Canceled).
	ErrCanceled = core.ErrCanceled
	// ErrRuntime: the guest program faulted (division by zero, null or
	// unmapped access, ...).
	ErrRuntime = core.ErrRuntime
)

// Classify maps a run error to its taxonomy outcome (OutcomeOK for nil).
func Classify(err error) Outcome { return core.Classify(err) }

// IsBudget reports whether err is a resource-budget trip (step, memory,
// or deadline) rather than a program fault or cancellation.
func IsBudget(err error) bool {
	return errors.Is(err, ErrStepLimit) || errors.Is(err, ErrMemLimit) ||
		errors.Is(err, ErrDeadline)
}

// Study compiles source and runs the limit study under one configuration.
func Study(name, src string, cfg Config) (*Report, error) {
	return core.RunSource(name, src, cfg, core.RunOptions{})
}

// StudyWith is Study under explicit resource budgets and cancellation.
func StudyWith(name, src string, cfg Config, opts RunOptions) (*Report, error) {
	return core.RunSource(name, src, cfg, opts)
}

// StudyAnalyzed runs the limit study on a previously analyzed module.
func StudyAnalyzed(info *ModuleInfo, cfg Config) (*Report, error) {
	return core.Run(info, cfg, core.RunOptions{})
}

// StudyAnalyzedWith is StudyAnalyzed under explicit resource budgets and
// cancellation.
func StudyAnalyzedWith(info *ModuleInfo, cfg Config, opts RunOptions) (*Report, error) {
	return core.Run(info, cfg, opts)
}

// StudyMany executes a previously analyzed module ONCE and evaluates
// every configuration against the shared instrumentation event stream,
// returning one report per configuration. The reports are bit-identical
// to calling StudyAnalyzedWith once per configuration; only the
// interpretation cost is paid once. Set opts.Trace to also record the
// event stream for later replay (see ReplayTrace).
func StudyMany(info *ModuleInfo, cfgs []Config, opts RunOptions) ([]*Report, error) {
	return core.MultiRun(info, cfgs, opts)
}

// ReplayTrace evaluates one configuration against an event trace
// recorded by a prior run (RunOptions.Trace) of the same analyzed
// module, without re-executing the program. Resource budgets were
// enforced when the trace was recorded.
func ReplayTrace(name string, info *ModuleInfo, cfg Config, r io.Reader) (*Report, error) {
	return core.ReplayTrace(name, info, cfg, core.RunOptions{}, r)
}

// Benchmarks returns the registered SPEC/EEMBC-like kernels.
func Benchmarks() []*Benchmark { return bench.All() }

// BenchmarkByName returns one registered kernel, or nil.
func BenchmarkByName(name string) *Benchmark { return bench.ByName(name) }

// The cluster facade: a fault-tolerant coordinator + worker fleet for
// distributed sweeps. A Coordinator owns per-tenant job queues, leases,
// retries, and per-worker circuit breakers; ClusterWorkers claim batches
// of sweep cells (in-process, or remotely via NewClusterClient), execute
// them on a local harness, and commit verified per-cell reports. See
// internal/cluster for the full semantics.

// Coordinator owns cluster jobs, queues, leases, and breakers.
type Coordinator = cluster.Coordinator

// CoordinatorOptions configures a Coordinator (zero values = defaults).
type CoordinatorOptions = cluster.CoordinatorOptions

// ClusterWorker claims and executes sweep cells against a coordinator.
type ClusterWorker = cluster.Worker

// ClusterWorkerOptions configures a ClusterWorker.
type ClusterWorkerOptions = cluster.WorkerOptions

// Coordination is the worker-facing coordinator surface, implemented
// in-process by *Coordinator and over HTTP by NewClusterClient.
type Coordination = cluster.Coordination

// JobStatus reports one cluster job: per-cell states, outcome counts,
// and the aggregate summary line.
type JobStatus = cluster.JobStatus

// NewCoordinator returns a running coordinator; call its Close to stop
// the lease janitor.
func NewCoordinator(opts CoordinatorOptions) *Coordinator {
	return cluster.NewCoordinator(opts)
}

// OpenCoordinator returns a running durable coordinator: every state
// transition is journaled to a write-ahead log under opts.DataDir, and
// opening over an existing log recovers jobs, committed reports, queue
// order, and live leases from the last synced state — a crashed
// coordinator resumes where it stopped, rejecting stale commits exactly
// as the original would have. An empty DataDir is NewCoordinator.
func OpenCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	return cluster.OpenCoordinator(opts)
}

// NewClusterWorker builds a worker against a Coordination surface.
func NewClusterWorker(opts ClusterWorkerOptions) (*ClusterWorker, error) {
	return cluster.NewWorker(opts)
}

// NewClusterClient returns the HTTP Coordination client for the
// coordinator at base (e.g. "http://coordinator:8080").
func NewClusterClient(base string) Coordination {
	return cluster.NewClient(base, nil)
}
