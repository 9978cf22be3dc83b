// Command benchjson converts `go test -bench` output into a
// machine-readable JSON summary (BENCH_PR24.json). It parses every
// benchmark line, keeps all reported metrics (ns/op, B/op, allocs/op,
// and custom metrics like instrs/sec or trace-bytes), records the
// measuring box's CPU count, and derives these ratio tables:
//
//   - parallel_vs_serial: for each benchmark with /parallel and /serial
//     sub-benchmarks, the serial÷parallel time ratio — the multi-core
//     scaling won by sharding engine classes across the class-affinity
//     worker pool (Parallelism=NumCPU) against inline replay on the
//     interpreting goroutine (Parallelism=1).
//   - seed_vs_current: current numbers against baselines measured at the
//     pre-shadow-memory seed commit with identical access patterns.
//   - parent_vs_current: the bytes per op of the benchmarks that run
//     guest memory (BenchmarkVMSuite, BenchmarkInterpreter and
//     BenchmarkAnalyzeFill/cold) against the parent of the 8-byte
//     memory words, so one file holds both sides of that change.
//     BENCH_PR22.json and BENCH_PR23.json hold the trace-bytes census
//     against the parent of trace format v3.
//
// BENCH_PR5.json and BENCH_PR9.json preserve the retired
// fanout_vs_perconfig and batched_vs_perevent tables, whose per-config
// and per-event modes no longer exist. BENCH_PR2.json through
// BENCH_PR16.json likewise preserve shadow_vs_legacy (the map tracker's
// cost against the shadow memory), and BENCH_PR7.json through
// BENCH_PR16.json bytecode_vs_treewalk (the tree-walker's against the
// bytecode VM): both reference implementations are test-only now, and the
// benchmarks no longer time them.
//
// It also extracts BenchmarkBytecodeLowering's custom "op/<mnemonic>"
// metrics into a bytecode_lowering table: the suite-wide static opcode
// mix and superinstruction coverage of the bytecode compiler.
//
// The input may also be a BENCH_*.json written by benchjson itself, which
// compares two checked-in files.
//
// With -compare, benchjson additionally loads a previous BENCH_*.json and
// exits non-zero when any gated series regressed past -tolerance percent
// against it. Per-op cost series (ns/op, sec/run, B/op, allocs/op) are
// gated only when both the baseline and the current run measured more
// than one iteration — a -benchtime=1x smoke folds one-time warm-up into
// its single op, which pollutes allocation counts as badly as timings.
// Deterministic work-census metrics (instruction counts, opcode mix) are
// exact at any iteration count and always gated, so the 1x CI smoke still
// catches the compiler or interpreter silently emitting more work while a
// full `make bench` run gates costs too. The trace-bytes census (the
// encoded size of every kernel's event trace) is gated with no tolerance:
// only a trace format change moves it, so any growth fails.
//
// Usage:
//
//	go test -bench=. -benchmem ./... | go run ./cmd/benchjson -o BENCH_PR17.json
//	go run ./cmd/benchjson -o BENCH_PR17.json bench.out
//	go test -bench=. -benchtime=1x -benchmem ./... | go run ./cmd/benchjson -compare BENCH_PR17.json
//	go run ./cmd/benchjson -compare BENCH_PR16.json BENCH_PR17.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	Name       string             `json:"name"` // GOMAXPROCS suffix stripped
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"` // unit -> value, e.g. "ns/op": 16.9
}

// Ratio compares two measurements of the same quantity. Speedup is
// baseline/current (>1 means current is better); it is omitted and
// Eliminated set when the current cost dropped to exactly zero, where
// the ratio is undefined.
type Ratio struct {
	Baseline   float64  `json:"baseline"`
	Current    float64  `json:"current"`
	Speedup    *float64 `json:"speedup,omitempty"`
	Eliminated bool     `json:"eliminated,omitempty"`
}

// seedBaseline is a measurement taken at the seed commit (d237949),
// before the shadow-memory tracker and the zero-allocation interpreter
// hot path, using benchmarks with the same access patterns as the
// current suite. Only metrics that were actually measured are present.
type seedBaseline struct {
	current string // name of the current benchmark it compares against
	metrics map[string]float64
}

// seedBaselines: measured on the same machine as the current numbers in
// this file's output. The lpbench entry is the end-to-end all-figures
// wall time of `cmd/lpbench` (macro), not a `go test` benchmark.
var seedBaselines = map[string]seedBaseline{
	"BenchmarkEngineLoadStore": {
		current: "BenchmarkEngineLoadStore/shadow",
		metrics: map[string]float64{"ns/op": 87.82, "B/op": 106},
	},
	"BenchmarkSweepSuite": {
		current: "BenchmarkSweepSuite/shadow",
		metrics: map[string]float64{"ns/op": 476.2e6, "B/op": 34.5e6, "allocs/op": 653000},
	},
	// The seed timed the tree-walking interpreter; the benchmark now
	// times the bytecode VM, as core.Run drives it.
	"BenchmarkInterpreter": {
		current: "BenchmarkInterpreter",
		metrics: map[string]float64{"ns/op": 4.64e6},
	},
	// Measured immediately before the bytecode VM landed: the tree-walking
	// dispatch loop with a fresh interpreter per run.
	"BenchmarkInterpDispatch": {
		current: "BenchmarkInterpDispatch/bytecode",
		metrics: map[string]float64{"ns/op": 6.7e6, "B/op": 5184, "allocs/op": 18},
	},
	"lpbench-all-figures": {
		current: "lpbench-all-figures",
		metrics: map[string]float64{"sec/run": 21.457},
	},
}

// parentBaselines: bytes per op at commit c6605ef, the parent of guest
// memory in 8-byte words, when every guest cell was a 24-byte
// interp.Val, measured on a 2-CPU box.
var parentBaselines = map[string]seedBaseline{
	"BenchmarkVMSuite": {
		current: "BenchmarkVMSuite",
		metrics: map[string]float64{"B/op": 4643824},
	},
	"BenchmarkInterpreter": {
		current: "BenchmarkInterpreter",
		metrics: map[string]float64{"B/op": 13408},
	},
	"BenchmarkAnalyzeFill/cold": {
		current: "BenchmarkAnalyzeFill/cold",
		metrics: map[string]float64{"B/op": 23008941},
	},
}

// extraCurrent holds macro measurements that do not come from `go test
// -bench` and are injected into the report alongside the parsed lines:
// the wall time of `./lpbench > /dev/null` (all figures), the median of
// ten alternated pairs of `-parallel 1` (/serial) and `-parallel 0`
// (/parallel) on a 2-CPU box, taken when width 0 still meant one pool
// worker per CPU in every run, as `-parallel 2` does there now; the
// unsuffixed row is the default width of that time.
var extraCurrent = map[string]map[string]float64{
	"lpbench-all-figures":          {"sec/run": 0.646},
	"lpbench-all-figures/serial":   {"sec/run": 0.648},
	"lpbench-all-figures/parallel": {"sec/run": 0.646},
}

type output struct {
	Schema string `json:"schema"`
	Note   string `json:"note"`
	// NumCPU is the CPU count of the box that ran the benchmarks: taken
	// from this process when converting `go test` output, carried over
	// when converting a BENCH_*.json (absent from files before
	// BENCH_PR13.json).
	NumCPU           int                         `json:"numCPU,omitempty"`
	Benchmarks       []Benchmark                 `json:"benchmarks"`
	ParallelVsSerial map[string]map[string]Ratio `json:"parallel_vs_serial"`
	BytecodeLowering *loweringStats              `json:"bytecode_lowering,omitempty"`
	SeedVsCurrent    map[string]map[string]Ratio `json:"seed_vs_current"`
	ParentVsCurrent  map[string]map[string]Ratio `json:"parent_vs_current,omitempty"`
}

// loweringStats is the static opcode mix of the bytecode compiler over
// the whole registered suite, pulled from BenchmarkBytecodeLowering's
// custom metrics.
type loweringStats struct {
	Insts       float64            `json:"insts"`
	FusedInsts  float64            `json:"fusedInsts"`
	FusedPct    float64            `json:"fusedPct"`
	OpcodeCount map[string]float64 `json:"opcodeCounts"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func parse(r io.Reader) ([]Benchmark, error) {
	var out []Benchmark
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		fields := strings.Fields(m[3])
		if len(fields)%2 != 0 {
			return nil, fmt.Errorf("odd metric fields in %q", sc.Text())
		}
		metrics := make(map[string]float64, len(fields)/2)
		for i := 0; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad metric value in %q: %v", sc.Text(), err)
			}
			metrics[fields[i+1]] = v
		}
		out = append(out, Benchmark{Name: m[1], Iterations: iters, Metrics: metrics})
	}
	return out, sc.Err()
}

// ratios builds a Ratio per shared metric. For per-op costs (ns/op,
// B/op, allocs/op, sec/run) speedup is baseline/current; for rates
// (anything per second) it is current/baseline so >1 always means
// "current is better".
func ratios(base, cur map[string]float64) map[string]Ratio {
	out := map[string]Ratio{}
	for unit, b := range base {
		c, ok := cur[unit]
		if !ok {
			continue
		}
		r := Ratio{Baseline: b, Current: c}
		set := func(v float64) { r.Speedup = &v }
		switch {
		case strings.HasSuffix(unit, "/sec"):
			if b != 0 {
				set(c / b)
			}
		case c != 0:
			set(b / c)
		case b == 0:
			set(1)
		default: // c == 0, b > 0: the cost was eliminated entirely
			r.Eliminated = true
		}
		out[unit] = r
	}
	return out
}

// baselineDoc is the subset of a previous BENCH_*.json the regression
// gate needs.
type baselineDoc struct {
	NumCPU     int         `json:"numCPU"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// gatedUnit reports whether a metric series participates in the
// regression gate.
func gatedUnit(unit string, baseIters, curIters int64) bool {
	switch unit {
	case "ns/op", "sec/run", "B/op", "allocs/op":
		// Per-op cost series only carry signal when both runs measured
		// more than one iteration: a -benchtime=1x smoke folds one-time
		// warm-up (pool growth, memoization caches, lazily sized tables)
		// into its single op, so neither its timings nor its allocation
		// counts are comparable to a steady-state measurement.
		return baseIters > 1 && curIters > 1
	case "fused-insts", "fused-pct":
		// Fusion coverage: higher is better, so the higher-is-worse gate
		// below would fire on improvements. Tracked in the
		// bytecode_lowering table instead.
		return false
	}
	// The remaining custom metrics are deterministic work censuses
	// (instruction counts, opcode mix) — exact at any iteration count,
	// and emitting more work is a real regression — except throughput
	// rates, which are wall-time derived and as noisy as ns/op.
	return !strings.HasSuffix(unit, "/sec")
}

// exactUnits are the censuses gated with no tolerance (see the package
// comment).
var exactUnits = map[string]bool{"trace-bytes": true}

// compare checks the current results against a previous run's benchmarks,
// returning one line per gated series that regressed past tolerance
// percent (past 0 for exactUnits). All gated series are per-op costs, so
// higher is worse.
func compare(base, cur []Benchmark, tolerance float64) (regressions, notes []string) {
	curBy := make(map[string]Benchmark, len(cur))
	for _, b := range cur {
		curBy[b.Name] = b
	}
	for _, ob := range base {
		cb, ok := curBy[ob.Name]
		if !ok {
			notes = append(notes, fmt.Sprintf("%s: in baseline but not in current run", ob.Name))
			continue
		}
		for _, unit := range sortedKeys(ob.Metrics) {
			ov := ob.Metrics[unit]
			cv, ok := cb.Metrics[unit]
			if !ok || ov <= 0 || !gatedUnit(unit, ob.Iterations, cb.Iterations) {
				continue
			}
			tol := tolerance
			if exactUnits[unit] {
				tol = 0
			}
			if worse := (cv - ov) / ov * 100; worse > tol {
				regressions = append(regressions, fmt.Sprintf("%s %s: %.10g -> %.10g (+%.1f%%, tolerance %.0f%%)",
					ob.Name, unit, ov, cv, worse, tol))
			}
		}
	}
	return regressions, notes
}

func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func run() error {
	outPath := flag.String("o", "", "write JSON here instead of stdout")
	comparePath := flag.String("compare", "", "previous BENCH_*.json to gate against; exit non-zero on regression past -tolerance")
	tolerance := flag.Float64("tolerance", 20, "regression gate threshold in percent (with -compare)")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	raw, err := io.ReadAll(in)
	if err != nil {
		return err
	}
	var benches []Benchmark
	numCPU := runtime.NumCPU()
	fromJSON := bytes.HasPrefix(bytes.TrimSpace(raw), []byte("{"))
	if fromJSON {
		// A previous benchjson output already carries its macro rows.
		var doc baselineDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("parsing input: %v", err)
		}
		benches, numCPU = doc.Benchmarks, doc.NumCPU
	} else if benches, err = parse(bytes.NewReader(raw)); err != nil {
		return err
	}
	if len(benches) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}

	byName := map[string]map[string]float64{}
	for _, b := range benches {
		byName[b.Name] = b.Metrics
	}
	if !fromJSON {
		for name, metrics := range extraCurrent {
			byName[name] = metrics
			benches = append(benches, Benchmark{Name: name, Iterations: 1, Metrics: metrics})
		}
	}
	sort.Slice(benches, func(i, j int) bool { return benches[i].Name < benches[j].Name })

	parallelVsSerial := map[string]map[string]Ratio{}
	for name, par := range byName {
		root, ok := strings.CutSuffix(name, "/parallel")
		if !ok {
			continue
		}
		ser, ok := byName[root+"/serial"]
		if !ok {
			continue
		}
		parallelVsSerial[root] = ratios(ser, par)
	}

	var lowering *loweringStats
	if m, ok := byName["BenchmarkBytecodeLowering"]; ok {
		lowering = &loweringStats{
			Insts:       m["insts"],
			FusedInsts:  m["fused-insts"],
			FusedPct:    m["fused-pct"],
			OpcodeCount: map[string]float64{},
		}
		for unit, v := range m {
			if op, ok := strings.CutPrefix(unit, "op/"); ok {
				lowering.OpcodeCount[op] = v
			}
		}
	}

	against := func(baselines map[string]seedBaseline) map[string]map[string]Ratio {
		out := map[string]map[string]Ratio{}
		for name, base := range baselines {
			if cur, ok := byName[base.current]; ok {
				out[name] = ratios(base.metrics, cur)
			}
		}
		return out
	}
	seedVsCurrent := against(seedBaselines)
	parentVsCurrent := against(parentBaselines)

	doc := output{
		Schema: "loopapalooza-bench/v3",
		Note: "speedup >1 means current/parallel is better; seed " +
			"baselines measured at commit d237949 with identical access patterns, " +
			"except BenchmarkInterpDispatch (measured at the pre-bytecode-VM commit). " +
			"BenchmarkInterpreter's seed baseline timed the tree-walker, its current " +
			"number the bytecode VM. " +
			"parallel_vs_serial compares Parallelism=NumCPU against Parallelism=1 " +
			"(inline replay on the interpreting goroutine); its ratio depends on the " +
			"measuring box's core count. parent_vs_current compares against " +
			"commit c6605ef, the parent of guest memory in 8-byte words.",
		NumCPU:           numCPU,
		Benchmarks:       benches,
		ParallelVsSerial: parallelVsSerial,
		BytecodeLowering: lowering,
		SeedVsCurrent:    seedVsCurrent,
		ParentVsCurrent:  parentVsCurrent,
	}
	if *outPath != "" || *comparePath == "" {
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		if *outPath == "" {
			if _, err := os.Stdout.Write(buf); err != nil {
				return err
			}
		} else if err := os.WriteFile(*outPath, buf, 0o644); err != nil {
			return err
		}
	}

	if *comparePath != "" {
		raw, err := os.ReadFile(*comparePath)
		if err != nil {
			return err
		}
		var base baselineDoc
		if err := json.Unmarshal(raw, &base); err != nil {
			return fmt.Errorf("parsing baseline %s: %v", *comparePath, err)
		}
		regressions, notes := compare(base.Benchmarks, benches, *tolerance)
		for _, n := range notes {
			fmt.Fprintln(os.Stderr, "benchjson: note:", n)
		}
		if len(regressions) > 0 {
			for _, r := range regressions {
				fmt.Fprintln(os.Stderr, "benchjson: REGRESSION:", r)
			}
			return fmt.Errorf("%d series regressed past %.0f%% against %s", len(regressions), *tolerance, *comparePath)
		}
		fmt.Fprintf(os.Stderr, "benchjson: no regression past %.0f%% against %s\n", *tolerance, *comparePath)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
