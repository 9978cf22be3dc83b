package main

// The output check. testdata/reports.sha256 holds the SHA-256 of the
// canonical JSON (json.Marshal) of every suite kernel's report under every
// paper configuration. Every op's reports are checked against it after the
// op's timer stops; `lpperf digests` regenerates it.

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	lp "loopapalooza"
	"loopapalooza/internal/analysis"
	"loopapalooza/internal/bench"
	"loopapalooza/internal/core"
)

//go:embed testdata/reports.sha256
var reportsSHA256 string

// digestTable maps "<kernel> <config>" to the hex SHA-256 of the report.
type digestTable map[string]string

// parseDigests reads lines of "<sha256>  <kernel> <config>"; blank lines
// and lines starting with # are skipped.
func parseDigests(text string) (digestTable, error) {
	t := digestTable{}
	for n, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 4 || len(f[0]) != 2*sha256.Size {
			return nil, fmt.Errorf("reports.sha256:%d: want \"<sha256>  <kernel> <flags> <model>\"", n+1)
		}
		cfg, err := core.ParseConfig(f[2] + " " + f[3])
		if err != nil {
			return nil, fmt.Errorf("reports.sha256:%d: %w", n+1, err)
		}
		t[f[1]+" "+cfg.String()] = f[0]
	}
	return t, nil
}

// reportDigest is the hex SHA-256 of the report's canonical JSON.
func reportDigest(r *core.Report) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// check verifies that reps are kernel's reports under cfgs, in order.
func (t digestTable) check(kernel string, cfgs []core.Config, reps []*core.Report) error {
	if len(reps) != len(cfgs) {
		return fmt.Errorf("%s: %d reports for %d configurations", kernel, len(reps), len(cfgs))
	}
	for i, r := range reps {
		key := kernel + " " + cfgs[i].String()
		want, ok := t[key]
		if !ok {
			return fmt.Errorf("%s: no reference digest", key)
		}
		got, err := reportDigest(r)
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		if got != want {
			return fmt.Errorf("%s: report digest %.12s does not match the reference %.12s", key, got, want)
		}
	}
	return nil
}

// digestsMain prints a fresh reports.sha256. Before printing it checks
// every multi-configuration report against the single-configuration
// core.Run, and the golden fixtures' configurations against their files.
func digestsMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lpperf digests", flag.ContinueOnError)
	fs.SetOutput(stderr)
	golden := fs.String("golden", "internal/bench/testdata/golden", "directory of the golden report fixtures")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "# SHA-256 of json.Marshal(report) for each suite kernel under each paper configuration.")
	fmt.Fprintln(&buf, "# Regenerate from the repository root: bash cmd/lpperf/run.sh digests > cmd/lpperf/testdata/reports.sha256")
	cfgs := core.PaperConfigs()
	for _, k := range bench.All() {
		info, err := lp.Analyze(k.Name, k.Source)
		if err != nil {
			fmt.Fprintln(stderr, "lpperf digests:", err)
			return 1
		}
		reps, err := lp.StudyMany(info, cfgs, lp.RunOptions{})
		if err != nil {
			fmt.Fprintln(stderr, "lpperf digests:", err)
			return 1
		}
		for i, cfg := range cfgs {
			one, err := core.Run(info, cfg, core.RunOptions{})
			if err == nil {
				err = core.CompareReports(reps[i], one)
			}
			var sum string
			if err == nil {
				sum, err = reportDigest(reps[i])
			}
			if err != nil {
				fmt.Fprintf(stderr, "lpperf digests: %s under %s: %v\n", k.Name, cfg, err)
				return 1
			}
			fmt.Fprintf(&buf, "%s  %s %s\n", sum, k.Name, cfg)
		}
		if err := checkGolden(filepath.Join(*golden, k.Name+".json"), info); err != nil {
			fmt.Fprintln(stderr, "lpperf digests:", err)
			return 1
		}
	}
	if _, err := stdout.Write(buf.Bytes()); err != nil {
		fmt.Fprintln(stderr, "lpperf digests:", err)
		return 1
	}
	return 0
}

// goldenCell and goldenLoop mirror one cell of internal/bench's golden
// fixtures.
type goldenCell struct {
	Config       core.Config  `json:"config"`
	SerialCost   int64        `json:"serialCost"`
	ParallelCost int64        `json:"parallelCost"`
	CoveredTicks int64        `json:"coveredTicks"`
	Speedup      string       `json:"speedup"`
	Anomalies    int64        `json:"anomalies"`
	Loops        []goldenLoop `json:"loops"`
}

type goldenLoop struct {
	ID            string            `json:"id"`
	Depth         int               `json:"depth"`
	Parallel      bool              `json:"parallel"`
	Reason        core.SerialReason `json:"reason"`
	SerialTicks   int64             `json:"serialTicks"`
	Iters         int64             `json:"iters"`
	ConflictIters int64             `json:"conflictIters"`
}

// checkGolden runs each configuration of a golden fixture and compares
// the report with the cell.
func checkGolden(path string, info *analysis.ModuleInfo) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var file struct {
		Cells []goldenCell `json:"cells"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, want := range file.Cells {
		r, err := core.Run(info, want.Config, core.RunOptions{})
		if err != nil {
			return fmt.Errorf("%s under %s: %w", path, want.Config, err)
		}
		got := goldenCell{
			Config:       r.Config,
			SerialCost:   r.SerialCost,
			ParallelCost: r.ParallelCost,
			CoveredTicks: r.CoveredTicks,
			Speedup:      fmt.Sprintf("%.4fx", r.Speedup()),
			Anomalies:    r.Anomalies.Total(),
			Loops:        []goldenLoop{},
		}
		for _, l := range r.Loops {
			got.Loops = append(got.Loops, goldenLoop{l.ID, l.Depth, l.Parallel, l.Reason, l.SerialTicks, l.Iters, l.ConflictIters})
		}
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if !bytes.Equal(gb, wb) {
			return fmt.Errorf("%s under %s: report differs from the golden fixture", path, want.Config)
		}
	}
	return nil
}
