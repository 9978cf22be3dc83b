package main

// lpperf compare A.json… -- B.json…: compares two sets of run records, A
// the parent and B the change, workload by workload, on every metric of
// BENCHMARK.json the records carry.
//
// Per metric it prints one verdict:
//
//	better      the claim rule holds: at least 10 pairs (A and B runs
//	            matched by seed), B wins at least 9 in 10 of them, ties
//	            counting for neither, and the medians differ by more than
//	            A's interquartile range;
//	worse       B's median is worse than A's by more than the bound;
//	unresolved  A's or B's spread (interquartile range over median) is
//	            wider than the bound, and not every B run beats every A run;
//	same        otherwise;
//	-           a per-layer metric, which has no bound, that is not better.
//
// setup_s is judged by its median alone: it guards against work moved
// into set-up, and the few set-ups of one run cannot outlast the slow
// spells of a shared machine, so its spread may exceed its bound.
//
// It exits 1 when any verdict is worse or unresolved.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// benchMetric is one metric of BENCHMARK.json; a per-layer metric has no
// bound (0).
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lpperf compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bmPath := fs.String("benchmark", "BENCHMARK.json", "benchmark description that holds the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var sides [2][]string
	side := 0
	for _, a := range fs.Args() {
		if a == "--" && side == 0 {
			side = 1
			continue
		}
		sides[side] = append(sides[side], a)
	}
	if len(sides[0]) == 0 || len(sides[1]) == 0 {
		fmt.Fprintln(stderr, "lpperf compare: usage: lpperf compare [-benchmark BENCHMARK.json] A.json... -- B.json...")
		return 2
	}
	var bm benchmarkFile
	b, err := os.ReadFile(*bmPath)
	if err == nil {
		err = json.Unmarshal(b, &bm)
	}
	if err != nil {
		fmt.Fprintln(stderr, "lpperf compare:", err)
		return 1
	}
	var runs [2]map[string][]record
	for i, files := range sides {
		if runs[i], err = loadRecords(files); err != nil {
			fmt.Fprintln(stderr, "lpperf compare:", err)
			return 1
		}
	}

	var workloads []string
	for w := range runs[0] {
		if len(runs[1][w]) > 0 {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	if len(workloads) == 0 {
		fmt.Fprintln(stderr, "lpperf compare: no workload has runs on both sides")
		return 1
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tn A/B\tA median [q1, q3]\tB median [q1, q3]\tchange\tbound\tverdict")
	code := 0
	metrics := append(bm.EndToEnd, bm.PerLayer...)
	for _, w := range workloads {
		a, b := runs[0][w], runs[1][w]
		for _, mt := range metrics {
			va, vb := values(a, mt.Name), values(b, mt.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := judge(va, vb, mt)
			if v.verdict == "worse" || v.verdict == "unresolved" {
				code = 1
			}
			bound := "-"
			if mt.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*mt.Bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t%.5g [%.5g, %.5g]\t%.5g [%.5g, %.5g]\t%+.2f%%\t%s\t%s\n",
				w, mt.Name, mt.Unit, len(va), len(vb), v.a[1], v.a[0], v.a[2], v.b[1], v.b[0], v.b[2],
				100*(v.b[1]/v.a[1]-1), bound, v.verdict)
		}
	}
	tw.Flush()
	return code
}

// loadRecords reads run records and groups them by workload, each group
// ordered by seed so that A and B runs pair up by seed.
func loadRecords(files []string) (map[string][]record, error) {
	out := map[string][]record{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Workload == "" {
			return nil, fmt.Errorf("%s: not an lpperf -out record", f)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	for _, rs := range out {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	}
	return out, nil
}

func values(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Result.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// judgement is one metric's comparison: each side's quartiles and the
// verdict.
type judgement struct {
	a, b    [3]float64 // q1, median, q3
	verdict string
}

// judge compares the parent's runs a with the change's runs b on metric
// mt, pairing them by position.
func judge(a, b []float64, mt benchMetric) judgement {
	var j judgement
	j.a[0], j.a[1], j.a[2] = quartiles(a)
	j.b[0], j.b[1], j.b[2] = quartiles(b)
	higherBetter := mt.Better == "higher"
	better := func(x, y float64) bool { // x better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	pairs, wins := min(len(a), len(b)), 0
	for i := range pairs {
		if better(b[i], a[i]) {
			wins++
		}
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	diff := j.b[1] - j.a[1]
	if !higherBetter {
		diff = -diff
	}
	spread := func(q [3]float64) float64 { return (q[2] - q[0]) / q[1] }
	switch {
	case pairs >= 10 && wins*10 >= pairs*9 && diff > j.a[2]-j.a[0]:
		j.verdict = "better"
	case mt.Bound == 0:
		j.verdict = "-"
	case mt.Name != "setup_s" && (spread(j.a) > mt.Bound || spread(j.b) > mt.Bound) && !allBetter:
		j.verdict = "unresolved"
	case diff < -mt.Bound*j.a[1]:
		j.verdict = "worse"
	default:
		j.verdict = "same"
	}
	return j
}
