// Command lpa runs the Loopapalooza limit study on one LPC program.
//
// Usage:
//
//	lpa [-config "reduc1-dep1-fn2 HELIX"] prog.lpc
//	lpa -all prog.lpc        # every paper configuration
//	lpa -ir prog.lpc         # dump the canonicalized IR
//	lpa -run prog.lpc        # just execute the program
//
// Resource budgets:
//
//	lpa -max-steps 100e6 -timeout 30s -mem-limit 1e6 prog.lpc
//
// With no file, lpa reads the program from stdin.
//
// Compile errors render one canonical "file:line:col: message" line per
// fault, each with a caret-marked source snippet, on stderr. lpa never
// exits via panic: an internal compiler bug renders as a diagnostic with a
// reproduction hint instead of a goroutine dump.
//
// Exit codes map the failure taxonomy so scripts can classify runs
// without parsing messages:
//
//	0  success
//	1  usage, I/O, compile, or configuration error
//	3  guest runtime fault (division by zero, null/unmapped access, ...)
//	4  step budget exhausted
//	5  memory budget exhausted
//	6  deadline/timeout exceeded
//	7  canceled
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/bytecode"
	"loopapalooza/internal/core"
	"loopapalooza/internal/diag"
	"loopapalooza/internal/interp"
	"loopapalooza/internal/lang"
)

func main() {
	cfgStr := flag.String("config", "reduc1-dep1-fn2 HELIX", "limit-study configuration")
	all := flag.Bool("all", false, "run every paper configuration")
	dumpIR := flag.Bool("ir", false, "print the canonicalized IR and loop analysis, then exit")
	justRun := flag.Bool("run", false, "execute the program without the limit study")
	maxSteps := flag.Int64("max-steps", 0, "dynamic instruction budget (0 = default)")
	timeout := flag.Duration("timeout", 0, "wall-clock budget (0 = none)")
	memLimit := flag.Int64("mem-limit", 0, "heap budget in 64-bit cells (0 = default)")
	parallel := flag.Int("parallel", 0, "fan-out worker pool width for -all (0 = share GOMAXPROCS among the runs in flight, 1 = serial; reports are bit-identical at every width)")
	flag.Parse()

	opts := core.RunOptions{
		MaxSteps:     *maxSteps,
		Timeout:      *timeout,
		MaxHeapCells: *memLimit,
		Parallelism:  *parallel,
	}
	os.Exit(runMain(*cfgStr, *all, *dumpIR, *justRun, flag.Arg(0), opts))
}

// runMain loads the program, runs the requested mode, and renders any
// failure. It is the no-panic boundary: whatever goes wrong below, the
// process exits through a diagnostic and a taxonomy exit code, never
// through a goroutine dump.
func runMain(cfgStr string, all, dumpIR, justRun bool, path string, opts core.RunOptions) (code int) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr,
				"lpa: internal error: %v\nThis is a bug in lpa, not in your program. Please report it together with the input file.\n", r)
			code = 1
		}
	}()

	name := "<stdin>"
	var src []byte
	var err error
	if path == "" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		name = path
		src, err = os.ReadFile(path)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lpa:", err)
		return 1
	}

	if err := run(cfgStr, all, dumpIR, justRun, name, string(src), opts); err != nil {
		renderError(err, string(src))
		return exitCode(err)
	}
	return 0
}

// renderError writes err to stderr: positioned diagnostics and ICEs render
// in their canonical caret form, everything else as a one-line message.
func renderError(err error, src string) {
	var l diag.List
	var d *diag.Diagnostic
	var ice *diag.ICE
	switch {
	case errors.As(err, &l):
		fmt.Fprint(os.Stderr, diag.Format(l, src))
	case errors.As(err, &ice):
		fmt.Fprint(os.Stderr, diag.Format(ice, src))
	case errors.As(err, &d):
		fmt.Fprint(os.Stderr, diag.Format(d, src))
	default:
		fmt.Fprintln(os.Stderr, "lpa:", err)
	}
}

// exitCode maps the failure taxonomy to distinct exit codes — the shared
// contract lives on core.Outcome so the serve layer's error bodies report
// the same numbers.
func exitCode(err error) int {
	if code := core.Classify(err).ExitCode(); code != 0 {
		return code
	}
	// A non-nil error always exits non-zero, even if it classified as OK.
	return 1
}

func run(cfgStr string, all, dumpIR, justRun bool, name, src string, opts core.RunOptions) error {
	if dumpIR {
		m, err := lang.Compile(name, src)
		if err != nil {
			return err
		}
		info, err := analysis.AnalyzeModule(m)
		if err != nil {
			return err
		}
		fmt.Print(m)
		fmt.Println("loops:")
		for _, lm := range info.Loops {
			fmt.Printf("  %-24s depth %d  IVs %d  reductions %d  non-computable LCDs %d  calls=%v\n",
				lm.ID(), lm.Loop.Depth, len(lm.Computable), len(lm.Reductions),
				len(lm.NonComputable), lm.HasCall)
			for _, line := range lm.SCEV.SortedEvoStrings() {
				fmt.Printf("      %s\n", line)
			}
		}
		return nil
	}

	info, err := core.AnalyzeSource(name, src)
	if err != nil {
		return err
	}

	if justRun {
		var deadline time.Time
		if opts.Timeout > 0 {
			deadline = time.Now().Add(opts.Timeout)
		}
		cfg := interp.Config{
			Out:          os.Stdout,
			MaxSteps:     opts.MaxSteps,
			MaxHeapCells: opts.MaxHeapCells,
			Deadline:     deadline,
		}
		prog, err := bytecode.For(info)
		if err != nil {
			return err
		}
		res, err := bytecode.NewVM(prog, cfg).Run("main")
		if err != nil {
			return err
		}
		fmt.Printf("main returned %d after %d IR instructions\n", res.Ret.I, res.Steps)
		return nil
	}

	if all {
		// One execution fans out to the whole grid (bit-identical to
		// per-config runs); -parallel bounds the worker pool.
		cfgs := core.PaperConfigs()
		reps, err := core.MultiRun(info, cfgs, opts)
		if err != nil {
			return err
		}
		for i, cfg := range cfgs {
			fmt.Printf("%-28s speedup %8.2fx  coverage %5.1f%%\n", cfg, reps[i].Speedup(), 100*reps[i].Coverage())
		}
		return nil
	}

	cfg, err := core.ParseConfig(cfgStr)
	if err != nil {
		return err
	}
	runOpts := opts
	runOpts.Out = os.Stdout
	r, err := core.Run(info, cfg, runOpts)
	if err != nil {
		return err
	}
	fmt.Print(r)
	return nil
}
