package bench

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"loopapalooza/internal/core"
)

// This file assembles the paper's figures on top of the sweep engine
// (sweep.go). Figures degrade gracefully: a failed cell never aborts a
// figure — suite geomeans are computed over the surviving benchmarks and
// missing cells are annotated with their failure class (e.g. "n/a(steps)").

// GeoMean returns the geometric mean of xs (1 if empty).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	sum := 0.0
	for _, x := range xs {
		if x < 1e-12 {
			x = 1e-12
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// suiteStat is one suite × configuration aggregate over surviving cells.
type suiteStat struct {
	Geo        float64      // geomean of the metric over surviving benchmarks
	OK, Failed int          // cell counts
	Outcome    core.Outcome // dominant failure outcome (when Failed > 0)
	Err        error        // first per-cell error (when Failed > 0)
}

// Note renders the figure-cell annotation: "" for a complete cell,
// "n/a(<class>)" when every benchmark failed, "k/n" for a partial geomean
// over k of n benchmarks.
func (st suiteStat) Note() string {
	switch {
	case st.Failed == 0:
		return ""
	case st.OK == 0:
		return "n/a(" + st.Outcome.Short() + ")"
	default:
		return fmt.Sprintf("%d/%d", st.OK, st.OK+st.Failed)
	}
}

// suiteStatOf aggregates metric over a suite under cfg, skipping failed
// cells.
func (h *Harness) suiteStatOf(s Suite, cfg core.Config, metric func(*core.Report) float64) suiteStat {
	var st suiteStat
	var xs []float64
	counts := map[core.Outcome]int{}
	for _, b := range BySuite(s) {
		r, err := h.Report(b, cfg)
		if err != nil {
			st.Failed++
			counts[core.Classify(err)]++
			if st.Err == nil {
				st.Err = err
			}
			continue
		}
		st.OK++
		xs = append(xs, metric(r))
	}
	for o, n := range counts {
		if n > counts[st.Outcome] || st.Outcome == core.OutcomeOK {
			st.Outcome = o
		}
	}
	st.Geo = GeoMean(xs)
	if st.OK == 0 {
		st.Geo = 0
	}
	return st
}

func speedupMetric(r *core.Report) float64 { return r.Speedup() }

func coverageMetric(r *core.Report) float64 {
	c := 100 * r.Coverage()
	if c < 0.1 {
		c = 0.1 // keep the geomean meaningful for zero-coverage runs
	}
	return c
}

// SuiteSpeedup returns the geometric-mean speedup of a suite under cfg,
// computed over the surviving benchmarks. It fails only when no benchmark
// of the suite completed.
func (h *Harness) SuiteSpeedup(s Suite, cfg core.Config) (float64, error) {
	st := h.suiteStatOf(s, cfg, speedupMetric)
	if st.OK == 0 && st.Failed > 0 {
		return 0, fmt.Errorf("suite %s under %s: no surviving benchmark: %w", s, cfg, st.Err)
	}
	return st.Geo, nil
}

// SuiteCoverage returns the geometric-mean dynamic coverage (in percent)
// of a suite under cfg, computed over the surviving benchmarks.
func (h *Harness) SuiteCoverage(s Suite, cfg core.Config) (float64, error) {
	st := h.suiteStatOf(s, cfg, coverageMetric)
	if st.OK == 0 && st.Failed > 0 {
		return 0, fmt.Errorf("suite %s under %s: no surviving benchmark: %w", s, cfg, st.Err)
	}
	return st.Geo, nil
}

// FigureRow is one bar group of Figures 2/3: a configuration and the
// geomean speedup per suite. Notes carries the per-suite annotation for
// incomplete cells ("" or absent when complete).
type FigureRow struct {
	Config   core.Config
	PerSuite map[Suite]float64
	Notes    map[Suite]string
}

// SpeedupFigure computes a Figure 2/3 style table: every paper
// configuration × the given suites. Failed cells degrade the affected
// suite geomeans instead of aborting the figure.
func (h *Harness) SpeedupFigure(suites []Suite) ([]FigureRow, error) {
	var benches []*Benchmark
	for _, s := range suites {
		benches = append(benches, BySuite(s)...)
	}
	h.Sweep(context.Background(), benches, core.PaperConfigs())
	var rows []FigureRow
	for _, cfg := range core.PaperConfigs() {
		row := FigureRow{Config: cfg, PerSuite: map[Suite]float64{}, Notes: map[Suite]string{}}
		for _, s := range suites {
			st := h.suiteStatOf(s, cfg, speedupMetric)
			row.PerSuite[s] = st.Geo
			if n := st.Note(); n != "" {
				row.Notes[s] = n
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Figure2 regenerates the non-numeric speedup figure.
func (h *Harness) Figure2() ([]FigureRow, error) { return h.SpeedupFigure(NonNumericSuites()) }

// Figure3 regenerates the numeric speedup figure.
func (h *Harness) Figure3() ([]FigureRow, error) { return h.SpeedupFigure(NumericSuites()) }

// Figure4Row is one benchmark of Figure 4. The Outcome fields record why
// a side is missing (OutcomeOK when the speedup is valid).
type Figure4Row struct {
	Name          string
	Suite         Suite
	PDOALLSpeedup float64
	HELIXSpeedup  float64
	PDOALLOutcome core.Outcome
	HELIXOutcome  core.Outcome
}

// Figure4 regenerates the per-benchmark best-PDOALL vs best-HELIX
// comparison across the four SPEC suites. Benchmarks that fail under a
// configuration appear with the failing side annotated instead of being
// dropped.
func (h *Harness) Figure4() ([]Figure4Row, error) {
	suites := []Suite{SuiteINT2000, SuiteINT2006, SuiteFP2000, SuiteFP2006}
	var benches []*Benchmark
	for _, s := range suites {
		benches = append(benches, BySuite(s)...)
	}
	h.Sweep(context.Background(), benches, []core.Config{core.BestPDOALL(), core.BestHELIX()})
	var rows []Figure4Row
	for _, b := range benches {
		row := Figure4Row{Name: b.Name, Suite: b.Suite}
		if rp, err := h.Report(b, core.BestPDOALL()); err != nil {
			row.PDOALLOutcome = core.Classify(err)
		} else {
			row.PDOALLSpeedup = rp.Speedup()
		}
		if rh, err := h.Report(b, core.BestHELIX()); err != nil {
			row.HELIXOutcome = core.Classify(err)
		} else {
			row.HELIXSpeedup = rh.Speedup()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Figure5Configs are the coverage configurations of Figure 5.
func Figure5Configs() []core.Config {
	return []core.Config{
		{Model: core.PDOALL, Reduc: 0, Dep: 0, Fn: 2},
		{Model: core.HELIX, Reduc: 0, Dep: 0, Fn: 2},
		{Model: core.HELIX, Reduc: 0, Dep: 1, Fn: 2},
	}
}

// Figure5Row is one bar group of Figure 5: geomean coverage (percent) per
// suite for one configuration, with per-suite annotations for incomplete
// cells.
type Figure5Row struct {
	Config   core.Config
	PerSuite map[Suite]float64
	Notes    map[Suite]string
}

// Figure5 regenerates the dynamic-coverage figure, degrading gracefully
// over failed cells.
func (h *Harness) Figure5() ([]Figure5Row, error) {
	h.Sweep(context.Background(), All(), Figure5Configs())
	var rows []Figure5Row
	for _, cfg := range Figure5Configs() {
		row := Figure5Row{Config: cfg, PerSuite: map[Suite]float64{}, Notes: map[Suite]string{}}
		for _, s := range AllSuites() {
			st := h.suiteStatOf(s, cfg, coverageMetric)
			row.PerSuite[s] = st.Geo
			if n := st.Note(); n != "" {
				row.Notes[s] = n
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// figureCell renders one suite cell: the value when complete, "n/a(...)"
// when empty, and "value *k/n" when partial.
func figureCell(val string, note string) string {
	switch {
	case note == "":
		return val
	case strings.HasPrefix(note, "n/a"):
		return note
	default:
		return val + " *" + note
	}
}

// FormatSpeedupFigure renders Figure 2/3 rows as a text table. Incomplete
// cells are annotated: "n/a(steps)" when every benchmark of the suite
// failed, "value *k/n" when the geomean covers only k of n benchmarks.
func FormatSpeedupFigure(title string, suites []Suite, rows []FigureRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-28s", "configuration")
	for _, s := range suites {
		fmt.Fprintf(&b, " %16s", string(s))
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s", r.Config.String())
		for _, s := range suites {
			cell := figureCell(fmt.Sprintf("%.2fx", r.PerSuite[s]), r.Notes[s])
			fmt.Fprintf(&b, " %16s", cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FormatFigure4 renders Figure 4 rows as a text table sorted by suite.
// Failed sides render as "n/a(<class>)" and leave no winner.
func FormatFigure4(rows []Figure4Row) string {
	sorted := append([]Figure4Row(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Suite != sorted[j].Suite {
			return sorted[i].Suite < sorted[j].Suite
		}
		return sorted[i].Name < sorted[j].Name
	})
	var b strings.Builder
	b.WriteString("Figure 4: per-benchmark speedups, best PDOALL (reduc1-dep2-fn2) vs best HELIX (reduc1-dep1-fn2)\n")
	fmt.Fprintf(&b, "%-16s %-10s %12s %12s %8s\n", "benchmark", "suite", "PDOALL", "HELIX", "winner")
	for _, r := range sorted {
		pd, hx := fmt.Sprintf("%.2fx", r.PDOALLSpeedup), fmt.Sprintf("%.2fx", r.HELIXSpeedup)
		if r.PDOALLOutcome != core.OutcomeOK {
			pd = "n/a(" + r.PDOALLOutcome.Short() + ")"
		}
		if r.HELIXOutcome != core.OutcomeOK {
			hx = "n/a(" + r.HELIXOutcome.Short() + ")"
		}
		winner := "-"
		if r.PDOALLOutcome == core.OutcomeOK && r.HELIXOutcome == core.OutcomeOK {
			winner = "HELIX"
			if r.PDOALLSpeedup > r.HELIXSpeedup {
				winner = "PDOALL"
			}
		}
		fmt.Fprintf(&b, "%-16s %-10s %12s %12s %8s\n",
			r.Name, string(r.Suite), pd, hx, winner)
	}
	return b.String()
}

// FormatFigure5 renders Figure 5 rows as a text table, annotating
// incomplete cells like FormatSpeedupFigure.
func FormatFigure5(rows []Figure5Row) string {
	var b strings.Builder
	b.WriteString("Figure 5: GEOMEAN dynamic coverage (% of instructions in parallel loops)\n")
	fmt.Fprintf(&b, "%-28s", "configuration")
	for _, s := range AllSuites() {
		fmt.Fprintf(&b, " %16s", string(s))
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s", r.Config.String())
		for _, s := range AllSuites() {
			cell := figureCell(fmt.Sprintf("%.1f%%", r.PerSuite[s]), r.Notes[s])
			fmt.Fprintf(&b, " %16s", cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}
