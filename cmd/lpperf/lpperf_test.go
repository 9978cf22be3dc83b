package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"loopapalooza/internal/core"
)

// tinyScale runs every workload in about a second: two small kernels, a
// handful of programs, a slow open loop.
var tinyScale = scale{
	setupReps: 1,
	kernels:   []string{"autcor", "canrdr"},
	programs:  8,
	probe:     3,
	lpdRate:   40,
	lpdWarmup: 200 * time.Millisecond,
}

func tinyEnv(t *testing.T, digests digestTable, traced bool) *env {
	t.Helper()
	if digests == nil {
		var err error
		if digests, err = parseDigests(reportsSHA256); err != nil {
			t.Fatal(err)
		}
	}
	e := &env{seed: 7, dur: 300 * time.Millisecond, scale: tinyScale, digests: digests}
	if traced {
		e.spans = newSpanLog()
	}
	return e
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// declares, end-to-end or per-layer.
func benchmarkMetrics(t *testing.T, perLayer bool) map[string]string {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bm); err != nil {
		t.Fatal(err)
	}
	list := bm.EndToEnd
	if perLayer {
		list = bm.PerLayer
	}
	out := map[string]string{}
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out
}

// TestSmokeEveryWorkload runs each workload at tiny size, plain and
// traced, and checks that it is correct and emits exactly the metrics
// BENCHMARK.json names, each with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "", true: "/traced"}[traced], func(t *testing.T) {
				rec, m := measure(name, workloads[name], tinyEnv(t, nil, traced))
				if !rec.Result.Correct {
					t.Fatalf("run not correct: attempted %d, failed %d, errors %v", rec.Result.Attempted, rec.Result.Failed, m.errs)
				}
				if rec.TimedOps == 0 {
					t.Fatal("no timed ops")
				}
				want := benchmarkMetrics(t, traced)
				for n, unit := range want {
					got, ok := rec.Result.Metrics[n]
					if !ok {
						t.Errorf("metric %s missing", n)
					} else if got.Unit != unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", n, got.Unit, unit)
					}
				}
				for n, v := range rec.Result.Metrics {
					if _, ok := want[n]; !ok {
						t.Errorf("metric %s is not in BENCHMARK.json", n)
					}
					if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("metric %s = %v", n, v.Value)
					}
				}
			})
		}
	}
}

func TestSeedFixesInputs(t *testing.T) {
	ks := tinyEnv(t, nil, false).kernels()
	sched := func(seed int64) []lpdReq { return lpdSchedule(seed, ks, 300, 10*time.Millisecond) }
	progs := func(seed int64) []program { return smallPrograms(seed, 4) }
	for _, tc := range []struct {
		name string
		gen  func(seed int64) any
	}{
		{"pass order", func(seed int64) any { return passOrder(seed, 3, 57) }},
		{"program set", func(seed int64) any {
			var srcs []string
			for _, p := range progs(seed) {
				srcs = append(srcs, p.src)
			}
			return srcs
		}},
		{"lpd schedule", func(seed int64) any { return sched(seed) }},
	} {
		if !reflect.DeepEqual(tc.gen(1), tc.gen(1)) {
			t.Errorf("%s: the same seed gave different inputs", tc.name)
		}
		if reflect.DeepEqual(tc.gen(1), tc.gen(2)) {
			t.Errorf("%s: different seeds gave the same inputs", tc.name)
		}
	}

	classes := map[string]int{}
	for _, r := range sched(1) {
		classes[r.class]++
	}
	for _, c := range []string{"hit", "replay", "cold"} {
		if classes[c] == 0 {
			t.Errorf("lpd schedule has no %s requests: %v", c, classes)
		}
	}
}

func TestCorruptDigestFailsRun(t *testing.T) {
	lines := strings.Split(reportsSHA256, "\n")
	target := "  autcor " + core.PaperConfigs()[3].String()
	corrupted := 0
	for i, l := range lines {
		if strings.HasSuffix(l, target) {
			// Change the first hex digit of the reference.
			d := "0"
			if l[0] == '0' {
				d = "1"
			}
			lines[i] = d + l[1:]
			corrupted++
		}
	}
	if corrupted != 1 {
		t.Fatalf("found %d lines ending in %q", corrupted, target)
	}
	digests, err := parseDigests(strings.Join(lines, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := measure("paper-grid", runPaperGrid, tinyEnv(t, digests, false))
	if rec.Result.Correct || rec.Result.Failed == 0 {
		t.Fatalf("a corrupted reference went unnoticed: %+v", rec.Result)
	}

	if _, err := parseDigests("abc  autcor reduc0-dep0-fn0 DOALL\n"); err == nil {
		t.Error("a short digest parsed")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	latency := benchMetric{Name: "op_ms_p50", Better: "lower", Bound: 0.1}
	setup := benchMetric{Name: "setup_s", Better: "lower", Bound: 0.1}
	perLayer := benchMetric{Name: "core.run_ms", Better: "lower"}
	for _, tc := range []struct {
		name string
		mt   benchMetric
		b    []float64
		want string
	}{
		{"identical", latency, base, "same"},
		{"slightly slower", latency, scaled(1.05), "same"},
		{"much slower", latency, scaled(1.3), "worse"},
		{"much faster", latency, scaled(0.7), "better"},
		{"noisy", latency, noisy, "unresolved"},
		{"noisy set-up", setup, noisy, "same"},
		{"much slower set-up", setup, scaled(1.3), "worse"},
		{"per-layer, much slower", perLayer, scaled(1.3), "-"},
		{"per-layer, much faster", perLayer, scaled(0.7), "better"},
	} {
		if got := judge(base, tc.b, tc.mt).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}
