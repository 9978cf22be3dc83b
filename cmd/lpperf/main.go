// Command lpperf is the repository's end-to-end and per-layer benchmark.
//
// It runs one of four workloads whose inputs derive from a seed, checks
// every output against a reference, and prints each metric by name with
// its unit: a table, then one JSON object as the last line of standard
// output.
//
//	lpperf -workload paper-grid -seed 1 -seconds 20 -trace 0
//	lpperf -seed 1                     # every workload, each in a fresh process
//	lpperf -workload lpd-mix -trace spans.json
//	lpperf compare A/*.json -- B/*.json
//	lpperf digests > testdata/reports.sha256
//
// With -trace 0 it reports the end-to-end metrics, measured with tracing
// off. With -trace 1 (or a file name) it records spans around each layer
// call of one timed op in eight, probes every layer's entry points on the
// workload's inputs, and reports the per-layer metrics, the window's
// throughput and latency among them. README.md describes the workloads
// and the metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// workloads maps each workload to the function that runs it, and
// workloadNames fixes the order the all-workloads mode runs them in.
var (
	workloads = map[string]func(*env, *measurement) error{
		"paper-grid":     runPaperGrid,
		"replay-grid":    runReplayGrid,
		"small-programs": runSmallPrograms,
		"lpd-mix":        runLPDMix,
	}
	workloadNames = []string{"paper-grid", "replay-grid", "small-programs", "lpd-mix"}
)

// metric is one named value of a result, with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as -out stores it: the result plus what a comparison
// of runs needs to know about the run and the machine.
type record struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NumCPU     int     `json:"numCPU"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"goVersion"`
	TimedOps   int64   `json:"timedOps"`
	Result     result  `json:"result"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:], stdout, stderr)
		case "digests":
			return digestsMain(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("lpperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", ")+` ("" = each one in a fresh process)`)
	seed := fs.Int64("seed", 1, "seed of the workload's inputs and order")
	seconds := fs.Float64("seconds", 20, "length of the timed window in seconds")
	trace := fs.String("trace", "0", "0: end-to-end metrics; 1: per-layer metrics from a traced run; a file name: as 1, and write the spans there")
	out := fs.String("out", "", "directory that receives a JSON record of each run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 {
		fmt.Fprintln(stderr, "lpperf: usage: lpperf [-workload name] [-seed n] [-seconds s] [-trace 0|1|file] [-out dir]")
		return 2
	}
	if *workload == "" {
		return runAll(args, stdout, stderr)
	}
	runFn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "lpperf: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames, ", "))
		return 2
	}
	digests, err := parseDigests(reportsSHA256)
	if err != nil {
		fmt.Fprintln(stderr, "lpperf:", err)
		return 1
	}
	e := &env{
		seed:    *seed,
		dur:     time.Duration(*seconds * float64(time.Second)),
		scale:   fullScale,
		digests: digests,
	}
	if *trace != "0" {
		e.spans = newSpanLog()
	}

	rec, m := measure(*workload, runFn, e)
	rec.Seconds = *seconds
	printReport(stdout, rec, m)
	code := 0
	if *trace != "0" && *trace != "1" {
		if err := e.spans.writeFile(*trace); err != nil {
			fmt.Fprintln(stderr, "lpperf:", err)
			code = 1
		}
	}
	if *out != "" {
		if err := writeRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "lpperf:", err)
			code = 1
		}
	}
	line, _ := json.Marshal(rec.Result)
	fmt.Fprintln(stdout, string(line))
	if !rec.Result.Correct {
		return 1
	}
	return code
}

// measure runs one workload in this process and derives its metrics.
func measure(name string, runFn func(*env, *measurement) error, e *env) (record, *measurement) {
	m := &measurement{}
	if err := runFn(e, m); err != nil {
		m.fail(err)
	}
	var metrics map[string]metric
	if e.traced() {
		metrics = m.layerMetrics()
	} else {
		metrics = m.endToEnd()
	}
	for k, v := range metrics {
		// A metric without samples is a failed run; 0 keeps the line JSON.
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			m.fail(fmt.Errorf("metric %s was not measured", k))
			metrics[k] = metric{0, v.Unit}
		}
	}
	return record{
		Workload:   name,
		Seed:       e.seed,
		Trace:      e.traced(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		TimedOps:   int64(len(m.ops)),
		Result: result{
			Correct:   m.failed == 0 && m.attempted > 0,
			Attempted: m.attempted,
			Failed:    m.failed,
			Metrics:   metrics,
		},
	}, m
}

// printReport writes the human-readable table of one run.
func printReport(w io.Writer, rec record, m *measurement) {
	fmt.Fprintf(w, "lpperf %s seed=%d seconds=%g trace=%v  NumCPU=%d GOMAXPROCS=%d %s\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.NumCPU, rec.GOMAXPROCS, rec.GoVersion)
	fmt.Fprintf(w, "timed ops %d, ops attempted %d, failed %d\n", rec.TimedOps, rec.Result.Attempted, rec.Result.Failed)
	for _, err := range m.errs {
		fmt.Fprintln(w, "  error:", err)
	}
	for _, note := range m.notes {
		fmt.Fprintln(w, " ", note)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit")
	names := make([]string, 0, len(rec.Result.Metrics))
	for n := range rec.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := rec.Result.Metrics[n]
		fmt.Fprintf(tw, "%s\t%.6g\t%s\n", n, v.Value, v.Unit)
	}
	tw.Flush()
}

// writeRecord stores rec as <dir>/<workload>-seed<n>-trace<0|1>.json.
func writeRecord(dir string, rec record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	traced := 0
	if rec.Trace {
		traced = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rec.Workload, rec.Seed, traced)
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// runAll runs every workload in a fresh process of this binary, so set-up
// time, peak memory and GC state belong to one workload, and prints a
// combined result whose metric names carry the workload as a prefix.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "lpperf:", err)
		return 1
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloadNames {
		var buf bytes.Buffer
		cmd := exec.Command(exe, append(append([]string(nil), args...), "-workload", w)...)
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = stderr
		runErr := cmd.Run()
		var r result
		if err := json.Unmarshal(lastLine(buf.Bytes()), &r); err != nil || runErr != nil {
			fmt.Fprintf(stderr, "lpperf: workload %s: exit %v, result %v\n", w, runErr, err)
			all.Correct = false
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, v := range r.Metrics {
			all.Metrics[w+"."+k] = v
		}
	}
	line, _ := json.Marshal(all)
	fmt.Fprintln(stdout, string(line))
	if !all.Correct {
		return 1
	}
	return 0
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}
