package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/bench"
	"loopapalooza/internal/core"
)

// The differential matrix checks the production pipeline (bytecode VM,
// shadow tracker, sealed-chunk fan-out) against the reference
// implementations tests keep: the tree-walking interpreter and the map
// tracker. The reference is one Run per configuration on the tree-walker
// and the map tracker, recording its trace. Every other cell — engine ×
// tracker × path, where a path is Run or MultiRun at one of
// matrixWidths, plus a replay of the reference trace under each tracker —
// must reproduce it: bit-identical reports, byte-identical recorded
// traces, and the same failures with the same error text.

// oracleConfigs are the configurations the matrix runs the suite under:
// one per execution model, at the most permissive flag settings (maximum
// tracker activity), plus the remaining dep variants that change conflict
// handling.
func oracleConfigs(short bool) []core.Config {
	cfgs := []core.Config{
		{Model: core.DOALL, Reduc: 1, Dep: 0, Fn: 2},
		{Model: core.PDOALL, Reduc: 1, Dep: 2, Fn: 2},
		{Model: core.HELIX, Reduc: 1, Dep: 2, Fn: 2},
	}
	if !short {
		cfgs = append(cfgs,
			core.Config{Model: core.PDOALL, Reduc: 0, Dep: 0, Fn: 1},
			core.Config{Model: core.HELIX, Reduc: 1, Dep: 1, Fn: 2},
		)
	}
	return cfgs
}

// matrixImpl is one value of an implementation axis: its name and how it
// changes the run options.
type matrixImpl struct {
	name string
	with func(core.RunOptions) core.RunOptions
}

func production(opts core.RunOptions) core.RunOptions { return opts }

var (
	matrixEngines  = []matrixImpl{{"treewalk", core.WithTreewalk}, {"bytecode", production}}
	matrixTrackers = []matrixImpl{{"map", core.WithMapTracker}, {"shadow", production}}
	// matrixWidths are MultiRun's fan-out widths, each once: inline, the
	// smallest pool, one worker per CPU, and more workers than classes.
	matrixWidths = func() []int {
		ws := []int{1, 2, runtime.NumCPU(), 64}
		slices.Sort(ws)
		return slices.Compact(ws)
	}()
)

var updateReference = flag.Bool("update", false, "rewrite "+referenceDigests+" from the matrix's reference")

// referenceDigests holds the SHA-256 of json.Marshal(report) of every
// kernel's reference report under every oracle configuration.
// internal/bench's TestShadowTrackerDifferentialOracle checks the
// production pipeline against it, since the map tracker is out of that
// package's reach.
const referenceDigests = "../bench/testdata/reference.sha256"

// TestDifferentialMatrix runs the matrix over every suite kernel under
// oracleConfigs, and over the hand-written determinism programs under
// every paper configuration three times over, so goroutine scheduling —
// the order in which pool workers pick chunks up — is reshuffled between
// repeats. One more row runs a determinism program under configurations
// that coalesce into a single engine class, so MultiRun and
// ReplayTraceMulti feed that engine event by event instead of through
// sealed chunks. The kernels' reference reports must also match
// referenceDigests; -update rewrites the file from them.
//
// The rows run in parallel with each other, but the test itself does not
// call t.Parallel: other tests count the runs in flight and the
// pool's goroutines, which only holds while no other top-level test runs.
func TestDifferentialMatrix(t *testing.T) {
	kernels := bench.All()
	if len(kernels) == 0 {
		t.Fatal("no registered benchmarks")
	}
	cfgs := oracleConfigs(testing.Short())
	digests := make([][]string, len(kernels)) // referenceDigests lines, per kernel
	var have map[string]bool                  // the lines referenceDigests holds
	if *updateReference {
		if testing.Short() {
			t.Fatal("-update needs every oracle configuration: run it without -short")
		}
		t.Cleanup(func() {
			if !t.Failed() {
				writeReferenceDigests(t, digests)
			}
		})
	} else {
		have = readReferenceDigests(t, len(kernels)*len(cfgs))
	}
	for i, b := range kernels {
		i, b := i, b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			info, err := b.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			want := checkMatrix(t, info, cfgs, 1)
			for j, cfg := range cfgs {
				if want.errs[j] != "" {
					t.Fatalf("%s: the reference fails, so it has no digest", cfg)
				}
				js, err := json.Marshal(want.reps[j])
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(js)
				line := fmt.Sprintf("%s  %s %s", hex.EncodeToString(sum[:]), b.Name, cfg)
				if have != nil && !have[line] {
					t.Errorf("%s: reference digest %.12s is not in %s (regenerate with -update)",
						cfg, line, referenceDigests)
				}
				digests[i] = append(digests[i], line)
			}
		})
	}
	for _, p := range core.DeterminismPrograms {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			info, err := core.AnalyzeSource(p.Name, p.Src)
			if err != nil {
				t.Fatal(err)
			}
			checkMatrix(t, info, core.PaperConfigs(), 3)
		})
	}
	t.Run("one-class", func(t *testing.T) {
		t.Parallel()
		var src string
		for _, p := range core.DeterminismPrograms {
			if p.Name == "infrequent" {
				src = p.Src
			}
		}
		info, err := core.AnalyzeSource("infrequent", src)
		if err != nil {
			t.Fatal(err)
		}
		// infrequent's one loop makes no call and carries no register
		// LCD, so the reduc, dep and fn flags have nothing to act on and
		// its eight PDOALL paper configurations share one engine.
		var cfgs []core.Config
		for _, cfg := range core.PaperConfigs() {
			if cfg.Model == core.PDOALL {
				cfgs = append(cfgs, cfg)
			}
		}
		if n, err := core.EngineClasses(info, cfgs); err != nil || n != 1 || len(cfgs) < core.FanoutThreshold {
			t.Fatalf("%d configurations form %d engine classes (%v), want at least %d forming 1",
				len(cfgs), n, err, core.FanoutThreshold)
		}
		checkMatrix(t, info, cfgs, 1)
	})
}

// readReferenceDigests returns the digest lines of referenceDigests. With
// every oracle configuration there must be want of them, so a kernel or
// configuration the matrix no longer runs leaves no stale line behind.
func readReferenceDigests(t *testing.T, want int) map[string]bool {
	t.Helper()
	b, err := os.ReadFile(referenceDigests)
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, line := range strings.Split(string(b), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			have[line] = true
		}
	}
	if !testing.Short() && len(have) != want {
		t.Errorf("%s holds %d digests, the matrix computes %d (regenerate with -update)",
			referenceDigests, len(have), want)
	}
	return have
}

// writeReferenceDigests rewrites referenceDigests, kernel by kernel.
func writeReferenceDigests(t *testing.T, digests [][]string) {
	var buf bytes.Buffer
	buf.WriteString("# SHA-256 of json.Marshal(report) for each suite kernel under each oracle\n" +
		"# configuration, on the tree-walker and the map tracker. Regenerate with:\n" +
		"# go test ./internal/core -run TestDifferentialMatrix -update\n")
	for _, lines := range digests {
		for _, line := range lines {
			buf.WriteString(line + "\n")
		}
	}
	if err := os.WriteFile(referenceDigests, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// matrixResult is what one cell produced, per configuration: the report
// (nil on failure) and the error text ("" on success); plus the trace the
// cell recorded, if any.
type matrixResult struct {
	reps  []*core.Report
	errs  []string
	trace []byte
}

func (r *matrixResult) failed() bool {
	for _, e := range r.errs {
		if e != "" {
			return true
		}
	}
	return false
}

// runEach runs every configuration through Run, recording the trace of the
// first.
func runEach(info *analysis.ModuleInfo, cfgs []core.Config, opts core.RunOptions) *matrixResult {
	res := &matrixResult{reps: make([]*core.Report, len(cfgs)), errs: make([]string, len(cfgs))}
	var trace bytes.Buffer
	for i, cfg := range cfgs {
		o := opts
		if i == 0 {
			o.Trace = &trace
		}
		rep, err := core.Run(info, cfg, o)
		res.reps[i], res.errs[i] = rep, errText(err)
	}
	res.trace = trace.Bytes()
	return res
}

// shared wraps the result of one call evaluating every configuration: its
// failure applies to each.
func shared(cfgs []core.Config, reps []*core.Report, err error, trace []byte) *matrixResult {
	res := &matrixResult{reps: reps, errs: make([]string, len(cfgs)), trace: trace}
	if err != nil {
		res.reps = make([]*core.Report, len(cfgs))
		for i := range res.errs {
			res.errs[i] = err.Error()
		}
	}
	return res
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkMatrix runs every cell of the matrix on one program repeats times,
// compares it with the reference, and returns the reference.
func checkMatrix(t *testing.T, info *analysis.ModuleInfo, cfgs []core.Config, repeats int) *matrixResult {
	t.Helper()
	refOpts := core.WithMapTracker(core.WithTreewalk(core.RunOptions{}))
	want := runEach(info, cfgs, refOpts)
	if want.failed() {
		t.Logf("reference run fails: %q", want.errs)
	}
	check := func(cell string, got *matrixResult) {
		t.Helper()
		for i, cfg := range cfgs {
			switch {
			case got.errs[i] != want.errs[i]:
				t.Errorf("%s/%s: outcome differs from the reference\nreference: %q\ncell:      %q",
					cell, cfg, want.errs[i], got.errs[i])
			case got.errs[i] == "":
				if err := core.CompareReports(want.reps[i], got.reps[i]); err != nil {
					t.Errorf("%s/%s: %v", cell, cfg, err)
				}
			}
		}
		if got.trace != nil && !want.failed() && !got.failed() && !bytes.Equal(want.trace, got.trace) {
			t.Errorf("%s: recorded trace differs from the reference (%d vs %d bytes)",
				cell, len(got.trace), len(want.trace))
		}
	}
	for rep := 0; rep < repeats; rep++ {
		for _, eng := range matrixEngines {
			for _, trk := range matrixTrackers {
				opts := trk.with(eng.with(core.RunOptions{}))
				cell := fmt.Sprintf("%s/%s", eng.name, trk.name)
				if rep > 0 || eng.name != "treewalk" || trk.name != "map" {
					check(fmt.Sprintf("rep%d/%s/run", rep, cell), runEach(info, cfgs, opts))
				}
				for _, p := range matrixWidths {
					var trace bytes.Buffer
					o := opts
					o.Parallelism, o.Trace = p, &trace
					reps, err := core.MultiRun(info, cfgs, o)
					check(fmt.Sprintf("rep%d/%s/multirun-p%d", rep, cell, p), shared(cfgs, reps, err, trace.Bytes()))
				}
			}
		}
		if want.failed() {
			continue // no complete trace to replay
		}
		for _, trk := range matrixTrackers {
			reps, err := core.ReplayTraceMulti(info.Mod.Name, info, cfgs,
				trk.with(core.RunOptions{}), bytes.NewReader(want.trace))
			check(fmt.Sprintf("rep%d/%s/replay", rep, trk.name), shared(cfgs, reps, err, nil))
		}
	}
	return want
}
