// Command lpbench regenerates the evaluation of the Loopapalooza paper:
// Figures 2–5 over the synthetic SPEC/EEMBC-like benchmark suites.
//
// Usage:
//
//	lpbench                  # all figures
//	lpbench -figure 2        # one figure
//	lpbench -bench 181.mcf   # per-benchmark report under every paper config
//	lpbench -list            # list benchmarks
//
// Resource budgets and fault isolation:
//
//	lpbench -max-steps 100e6 -timeout 30s -mem-limit 1e6
//
// bounds every benchmark run by dynamic instruction count, wall-clock
// time, and simulated heap cells. With -keep-going (the default) a cell
// that exhausts a budget, faults, or panics is annotated in the figures
// ("n/a(steps)", "n/a(time)", ...) and classified in the failure-summary
// footer; suite geomeans cover the surviving benchmarks. With
// -keep-going=false the first failed cell aborts with exit code 1.
// lpbench exits 0 when every cell completed and 3 when output was
// rendered with failed cells (figures, -matrix, and -bench alike).
//
// Execution sharing and traces:
//
//	lpbench -parallel 1          # replay every engine on the interpreting goroutine
//	lpbench -trace-dir traces/   # record each execution's binary event trace
//
// Every benchmark is interpreted ONCE per sweep and its event stream is
// fanned out, as sealed chunks, to all configurations' engines. -parallel
// sets the width: 0 (the default) shares GOMAXPROCS among the executions
// in flight — the harness already runs one per CPU, so a saturated sweep
// replays each execution's engines inline — and 1 always replays them
// inline. Reports are bit-identical to per-cell runs at every width.
// -trace-dir additionally records each execution as a replayable
// .lptrace file; a stats footer on stderr counts the executions saved
// and prints the worker width (p=auto(≤N) at width 0).
//
// Profiling:
//
//	lpbench -cpuprofile cpu.out -memprofile mem.out -figure 2
//
// writes pprof profiles covering the whole run (see EXPERIMENTS.md for the
// analysis recipe).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"loopapalooza/internal/bench"
	"loopapalooza/internal/core"
)

func main() { os.Exit(run()) }

// run executes the command and returns the process exit code. All exits
// funnel through here so deferred cleanup (profile writers) always runs.
func run() int {
	figure := flag.Int("figure", 0, "regenerate one figure (2-5); 0 = all")
	benchName := flag.String("bench", "", "report a single benchmark under every paper configuration")
	list := flag.Bool("list", false, "list registered benchmarks")
	matrix := flag.Bool("matrix", false, "per-benchmark speedups under key configurations")
	maxSteps := flag.Int64("max-steps", 0, "per-run dynamic instruction budget (0 = default)")
	timeout := flag.Duration("timeout", 0, "per-run wall-clock budget (0 = none)")
	memLimit := flag.Int64("mem-limit", 0, "per-run memory budget in 64-bit cells: the heap, and the globals and the stack each (0 = default)")
	keepGoing := flag.Bool("keep-going", true, "render figures over surviving cells instead of aborting on the first failure")
	parallel := flag.Int("parallel", 0, "fan-out worker pool width per execution (0 = share GOMAXPROCS among the runs in flight, 1 = serial; reports are bit-identical at every width)")
	traceDir := flag.String("trace-dir", "", "record each benchmark execution's event trace into this directory")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lpbench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "lpbench:", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lpbench:", err)
				return
			}
			runtime.GC() // materialize up-to-date allocation stats
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "lpbench:", err)
			}
			f.Close()
		}()
	}

	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "lpbench:", err)
			return 1
		}
	}
	h := bench.NewHarnessWith(bench.HarnessOptions{
		Run: core.RunOptions{
			MaxSteps:     *maxSteps,
			Timeout:      *timeout,
			MaxHeapCells: *memLimit,
			Parallelism:  *parallel,
		},
		RetryTransient: true,
		TraceDir:       *traceDir,
	})
	defer func() {
		if st := h.Stats(); st.Executions > 0 {
			fmt.Fprintf(os.Stderr, "lpbench: %d execution(s) served %d cell(s), %d saved by fan-out (workers %s)",
				st.Executions, st.Cells, st.Saved, workersLabel(*parallel))
			if st.Traces > 0 {
				fmt.Fprintf(os.Stderr, ", %d trace(s) recorded to %s", st.Traces, *traceDir)
			}
			fmt.Fprintln(os.Stderr)
		}
	}()

	switch {
	case *matrix:
		if err := printMatrix(h); err != nil {
			fmt.Fprintln(os.Stderr, "lpbench:", err)
			return 1
		}
		return partialCode(h)
	case *list:
		for _, b := range bench.All() {
			fmt.Printf("%-10s %-16s %s\n", b.Suite, b.Name, b.Modeled)
		}
		return 0
	case *benchName != "":
		if err := reportOne(h, *benchName); err != nil {
			fmt.Fprintln(os.Stderr, "lpbench:", err)
			return 1
		}
		return partialCode(h)
	default:
		return runFigures(h, *figure, *keepGoing)
	}
}

// workersLabel renders the -parallel width for the stats footer: an
// explicit width as p=N, and width 0 as p=auto(≤N), since an auto run's
// width depends on the runs in flight beside it and N is only the widest.
func workersLabel(parallel int) string {
	if parallel <= 0 {
		return fmt.Sprintf("p=auto(≤%d)", core.ResolveParallelism(0))
	}
	return fmt.Sprintf("p=%d", parallel)
}

// partialCode returns 3 when any cell failed, mirroring the figure path's
// partial-result exit code.
func partialCode(h *bench.Harness) int {
	if len(h.Failures()) > 0 {
		return 3
	}
	return 0
}

// runFigures renders the requested figures, then the failure-summary
// footer. Exit codes: 0 all cells ok, 1 aborted (-keep-going=false),
// 3 figures rendered with failed cells.
func runFigures(h *bench.Harness, figure int, keepGoing bool) int {
	run := func(n int) error {
		switch n {
		case 2:
			rows, err := h.Figure2()
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatSpeedupFigure(
				"Figure 2: GEOMEAN speedups, non-numeric suites (SpecINT-like)",
				bench.NonNumericSuites(), rows))
		case 3:
			rows, err := h.Figure3()
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatSpeedupFigure(
				"Figure 3: GEOMEAN speedups, numeric suites (EEMBC/SpecFP-like)",
				bench.NumericSuites(), rows))
		case 4:
			rows, err := h.Figure4()
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatFigure4(rows))
		case 5:
			rows, err := h.Figure5()
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatFigure5(rows))
		default:
			return fmt.Errorf("no figure %d (the paper has figures 2-5)", n)
		}
		fmt.Println()
		return nil
	}

	figures := []int{2, 3, 4, 5}
	if figure != 0 {
		figures = []int{figure}
	}
	for _, n := range figures {
		if err := run(n); err != nil {
			fmt.Fprintln(os.Stderr, "lpbench:", err)
			return 1
		}
		if !keepGoing {
			if failures := h.Failures(); len(failures) > 0 {
				fmt.Fprint(os.Stderr, bench.FormatFailureSummary(failures))
				fmt.Fprintln(os.Stderr, "lpbench: aborting (-keep-going=false)")
				return 1
			}
		}
	}
	if failures := h.Failures(); len(failures) > 0 {
		fmt.Print(bench.FormatFailureSummary(failures))
		return 3
	}
	return 0
}

func printMatrix(h *bench.Harness) error {
	cfgs := []core.Config{
		{Model: core.DOALL},
		{Model: core.PDOALL, Reduc: 1, Dep: 2, Fn: 2},
		{Model: core.PDOALL, Reduc: 0, Dep: 3, Fn: 3},
		{Model: core.HELIX, Reduc: 0, Dep: 0, Fn: 2},
		{Model: core.HELIX, Reduc: 1, Dep: 1, Fn: 2},
	}
	h.Sweep(nil, bench.All(), cfgs)
	fmt.Printf("%-10s %-16s %9s %9s %9s %9s %9s %10s\n",
		"suite", "benchmark", "doall", "pd-r1d2f2", "pd-d3f3", "hx-d0f2", "hx-r1d1f2", "serialMI")
	for _, b := range bench.All() {
		var cells []string
		var serial int64
		for _, cfg := range cfgs {
			r, err := h.Report(b, cfg)
			if err != nil {
				cells = append(cells, fmt.Sprintf("%9s", "n/a("+core.Classify(err).Short()+")"))
				continue
			}
			cells = append(cells, fmt.Sprintf("%8.2fx", r.Speedup()))
			serial = r.SerialCost
		}
		fmt.Printf("%-10s %-16s %s %9.2f\n", b.Suite, b.Name,
			joinCells(cells), float64(serial)/1e6)
	}
	if failures := h.Failures(); len(failures) > 0 {
		fmt.Print(bench.FormatFailureSummary(failures))
	}
	return nil
}

func joinCells(cells []string) string {
	out := ""
	for i, c := range cells {
		if i > 0 {
			out += " "
		}
		out += c
	}
	return out
}

func reportOne(h *bench.Harness, name string) error {
	b := bench.ByName(name)
	if b == nil {
		return fmt.Errorf("unknown benchmark %q (try -list)", name)
	}
	fmt.Printf("%s (%s): %s\n\n", b.Name, b.Suite, b.Modeled)
	// Sweep the whole grid first so all fourteen cells share one
	// execution; the loop below reads the completed cells.
	h.Sweep(nil, []*bench.Benchmark{b}, core.PaperConfigs())
	for _, cfg := range core.PaperConfigs() {
		r, err := h.Report(b, cfg)
		if err != nil {
			fmt.Printf("%-28s %s: %v\n", cfg, core.Classify(err), err)
			continue
		}
		fmt.Printf("%-28s speedup %8.2fx  coverage %5.1f%%\n", cfg, r.Speedup(), 100*r.Coverage())
	}
	return nil
}
