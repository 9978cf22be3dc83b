// Package bench provides the benchmark substrate of the reproduction: LPC
// kernels modeled on the loop behaviour of the SPEC CPU2000/CPU2006 and
// EEMBC programs the paper evaluates, plus the harness that regenerates
// Figures 2–5.
//
// SPEC and EEMBC are proprietary, so each kernel is a synthetic analog
// that replicates the property the limit study measures for its namesake:
// loop structure, the frequency and kind of loop-carried dependencies,
// reduction and induction patterns, call density and purity, and memory
// access regularity (see DESIGN.md §2 for the substitution argument).
package bench

import (
	"fmt"
	"sort"
	"sync"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/core"
)

// Suite identifies one benchmark suite of the paper.
type Suite string

// The five suites of Figures 2 and 3.
const (
	SuiteINT2000 Suite = "cint2000"
	SuiteINT2006 Suite = "cint2006"
	SuiteFP2000  Suite = "cfp2000"
	SuiteFP2006  Suite = "cfp2006"
	SuiteEEMBC   Suite = "eembc"
)

// NumericSuites are the Figure 3 suites.
func NumericSuites() []Suite { return []Suite{SuiteEEMBC, SuiteFP2000, SuiteFP2006} }

// NonNumericSuites are the Figure 2 suites.
func NonNumericSuites() []Suite { return []Suite{SuiteINT2000, SuiteINT2006} }

// AllSuites lists every suite.
func AllSuites() []Suite {
	return []Suite{SuiteINT2000, SuiteINT2006, SuiteFP2000, SuiteFP2006, SuiteEEMBC}
}

// Benchmark is one kernel.
type Benchmark struct {
	// Name follows the SPEC naming of the modeled program
	// (e.g. "181.mcf"), or the EEMBC kernel name.
	Name string
	// Suite is the owning suite.
	Suite Suite
	// Modeled describes which behaviour of the namesake the kernel
	// replicates.
	Modeled string
	// Source is the LPC program.
	Source string

	// runHook, when set, replaces the harness's core.MultiRun call for
	// this benchmark. Test seam for fault injection (panics, synthetic
	// budget errors) on the path every sweep takes.
	runHook func([]core.Config, core.RunOptions) ([]*core.Report, error)

	// Analysis once-cell: each benchmark is parsed and analyzed exactly
	// once per process, and the immutable ModuleInfo is shared by every
	// config cell of every sweep. Distinct benchmarks analyze
	// concurrently (no global lock).
	analyzeOnce sync.Once
	analyzeInfo *analysis.ModuleInfo
	analyzeErr  error
}

var registry []*Benchmark

func register(b *Benchmark) {
	registry = append(registry, b)
}

// All returns every benchmark, suite by suite in AllSuites order.
func All() []*Benchmark {
	out := append([]*Benchmark(nil), registry...)
	order := map[Suite]int{}
	for i, s := range AllSuites() {
		order[s] = i
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Suite != out[j].Suite {
			return order[out[i].Suite] < order[out[j].Suite]
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// BySuite returns the benchmarks of one suite, by name.
func BySuite(s Suite) []*Benchmark {
	var out []*Benchmark
	for _, b := range All() {
		if b.Suite == s {
			out = append(out, b)
		}
	}
	return out
}

// ByName returns one benchmark, or nil.
func ByName(name string) *Benchmark {
	for _, b := range registry {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// Analyze compiles and analyzes the benchmark exactly once per process and
// returns the shared, immutable result (the compile-time analysis is
// configuration-independent).
func (b *Benchmark) Analyze() (*analysis.ModuleInfo, error) {
	b.analyzeOnce.Do(func() {
		b.analyzeInfo, b.analyzeErr = core.AnalyzeSource(b.Name, b.Source)
		if b.analyzeErr != nil {
			b.analyzeErr = fmt.Errorf("bench %s: %w", b.Name, b.analyzeErr)
		}
	})
	return b.analyzeInfo, b.analyzeErr
}

// Run executes the limit study for one configuration with no budgets.
func (b *Benchmark) Run(cfg core.Config) (*core.Report, error) {
	return b.RunWith(cfg, core.RunOptions{})
}

// RunWith executes the limit study for one configuration under the given
// budgets and cancellation context.
func (b *Benchmark) RunWith(cfg core.Config, opts core.RunOptions) (*core.Report, error) {
	info, err := b.Analyze()
	if err != nil {
		return nil, err
	}
	return core.Run(info, cfg, opts)
}
