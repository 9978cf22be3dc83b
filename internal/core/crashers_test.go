package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestCrasherReplayRun replays the checked-in crashers end to end — parse,
// check, lower, analyze, execute under tight budgets. Inputs that fail to
// compile must fail with a diagnostic; inputs that compile must either run
// or fail inside the documented error taxonomy. Nothing may panic, hang,
// or allocate outside the budgets (the huge-globals and deep-recursion
// crashers did exactly that before their fixes). Every crasher that
// compiles also runs on the tree-walking interpreter, which must give the
// bytecode VM's outcome, error text, program output and report.
func TestCrasherReplayRun(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "lang", "testdata", "crashers", "*.lpc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no crashers checked in under internal/lang/testdata/crashers")
	}
	opts := RunOptions{MaxSteps: 1_000_000, MaxHeapCells: 1 << 20}
	cfg := Config{Model: PDOALL, Reduc: 1, Dep: 2, Fn: 2}
	for _, p := range paths {
		p := p
		t.Run(filepath.Base(p), func(t *testing.T) {
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			info, err := AnalyzeSource(filepath.Base(p), string(src))
			if err != nil {
				// A compile-time diagnostic; the compile surface's own
				// replay test (internal/lang) checks its shape.
				return
			}
			var out, outT bytes.Buffer
			bcOpts, twOpts := opts, WithTreewalk(opts)
			bcOpts.Out, twOpts.Out = &out, &outT
			rep, rerr := Run(info, cfg, bcOpts)
			repT, errT := Run(info, cfg, twOpts)
			if Classify(rerr) != Classify(errT) || errText(rerr) != errText(errT) {
				t.Errorf("engines disagree: bytecode=%v treewalk=%v", rerr, errT)
			}
			if !bytes.Equal(out.Bytes(), outT.Bytes()) {
				t.Errorf("program output differs: bytecode %q, treewalk %q", out.String(), outT.String())
			}
			if rerr == nil && errT == nil {
				if cerr := CompareReports(rep, repT); cerr != nil {
					t.Error(cerr)
				}
			}
			if rerr == nil {
				return
			}
			if errors.Is(rerr, ErrPanic) {
				t.Fatalf("crasher regressed to a panic: %v", rerr)
			}
			for _, sentinel := range []error{ErrStepLimit, ErrMemLimit, ErrDeadline, ErrCanceled, ErrRuntime} {
				if errors.Is(rerr, sentinel) {
					return // classified execution failure: fine
				}
			}
			t.Fatalf("execution failure outside the taxonomy: %v", rerr)
		})
	}
}

// errText is err's message, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
