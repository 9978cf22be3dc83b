package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/core"
	"loopapalooza/internal/interp"
)

// oracleConfigs are the configurations the differential oracle runs: one
// per execution model, at the most permissive flag settings (maximum
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

// treewalkRun is core.Run with main executed by the tree-walking
// interpreter, the reference the bytecode VM is checked against: a fresh
// engine consumes the tree-walker's hook stream under a maxSteps budget,
// and a failure is wrapped as core.Run wraps it. When trace is non-nil a
// second, identical execution records the event trace.
func treewalkRun(info *analysis.ModuleInfo, cfg core.Config, maxSteps int64, trace io.Writer) (*core.Report, error) {
	execute := func(hooks interp.Hooks) error {
		if _, err := interp.New(info, interp.Config{MaxSteps: maxSteps, Hooks: hooks}).Run("main"); err != nil {
			return fmt.Errorf("core: %s: %w", info.Mod.Name, err)
		}
		return nil
	}
	engine := core.NewEngine(info, cfg)
	if err := execute(engine); err != nil {
		return nil, err
	}
	if trace != nil {
		tw := core.NewTraceWriter(trace, info)
		if err := execute(tw); err != nil {
			return nil, err
		}
		if err := tw.Close(); err != nil {
			return nil, err
		}
	}
	return engine.Report(info.Mod.Name), nil
}

// referenceDigests is testdata/reference.sha256: the SHA-256 of the
// canonical JSON of every benchmark's report under every oracle
// configuration, as the tree-walker on the map tracker computes it.
const referenceDigests = "testdata/reference.sha256"

// readReferenceDigests maps "<benchmark> <config>" to its reference
// digest.
func readReferenceDigests(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile(referenceDigests)
	if err != nil {
		t.Fatal(err)
	}
	digests := map[string]string{}
	for _, line := range strings.Split(string(b), "\n") {
		if sum, key, ok := strings.Cut(line, "  "); ok && !strings.HasPrefix(line, "#") {
			digests[key] = sum
		}
	}
	return digests
}

// TestShadowTrackerDifferentialOracle runs every benchmark of the suite
// under DOALL, PDOALL, and HELIX on the shadow-memory tracker and requires
// reports bit-identical to the map tracker's. This is the correctness gate
// for the shadow memory: any divergence in conflict detection, phase
// accounting, or cost propagation shows up as a report diff. The map
// tracker is test-only code of internal/core, so its reports reach this
// package as the digests of testdata/reference.sha256, which
// TestDifferentialMatrix in internal/core checks against the map tracker
// on every run (and rewrites with -update).
func TestShadowTrackerDifferentialOracle(t *testing.T) {
	benchmarks := All()
	if len(benchmarks) == 0 {
		t.Fatal("no registered benchmarks")
	}
	want := readReferenceDigests(t)
	short := testing.Short()
	for _, b := range benchmarks {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			info, err := b.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range oracleConfigs(short) {
				key := b.Name + " " + cfg.String()
				rep, err := core.Run(info, cfg, core.RunOptions{})
				if err != nil {
					t.Fatalf("%s: %v", cfg, err)
				}
				js, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(js)
				if got := hex.EncodeToString(sum[:]); got != want[key] {
					t.Errorf("%s: report digest %.12s, the map tracker's is %.12s (%s)",
						key, got, want[key], referenceDigests)
				}
			}
		})
	}
}
