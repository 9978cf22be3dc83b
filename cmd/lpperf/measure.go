package main

import (
	"bufio"
	"fmt"
	"maps"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"loopapalooza/internal/bench"
)

// scale sizes the workloads. fullScale is what the benchmark runs; tests
// shrink it.
type scale struct {
	setupReps int           // set-up repetitions; setup_s is their median
	kernels   []string      // suite kernels used (nil = all 57)
	programs  int           // small-programs: programs derived from the seed
	probe     int           // small-programs: programs the layer probe visits
	lpdRate   float64       // lpd-mix: requests per second
	lpdWarmup time.Duration // lpd-mix: open-loop load before the timed window
}

var fullScale = scale{
	setupReps: 3,
	programs:  2000,
	probe:     200,
	lpdRate:   100,
	lpdWarmup: 3 * time.Second,
}

// workers is how many goroutines a batch workload's ops run on, and how
// many connections lpd-mix sends on: at most two, so the load matches a
// two-CPU box and stays comparable across machines.
func workers() int { return min(2, runtime.NumCPU()) }

// env is what one run of a workload is given.
type env struct {
	seed    int64
	dur     time.Duration // the timed window
	scale   scale
	digests digestTable
	spans   *spanLog // nil unless this is a traced run
}

func (e *env) traced() bool { return e.spans != nil }

// kernels returns the suite kernels this run uses, in suite order.
func (e *env) kernels() []input {
	var out []input
	for _, b := range bench.All() {
		if e.scale.kernels == nil || slices.Contains(e.scale.kernels, b.Name) {
			out = append(out, input{name: b.Name, src: b.Source})
		}
	}
	return out
}

// setup runs f setupReps times and records each duration. f builds the
// workload's inputs and brings the system to where the timed window
// starts; setup_s is the median duration. Between two repetitions undo,
// if not nil, releases what the earlier one started, untimed.
func (e *env) setup(m *measurement, f, undo func() error) error {
	for rep := range e.scale.setupReps {
		if rep > 0 && undo != nil {
			if err := undo(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if err := f(); err != nil {
			return err
		}
		m.setup = append(m.setup, time.Since(t0))
	}
	return nil
}

// input is one named LPC program.
type input struct{ name, src string }

// measurement collects what a run observed; endToEnd and layerMetrics
// turn it into metrics.
type measurement struct {
	mu sync.Mutex

	setup      []time.Duration
	ops        []timedOp     // timed ops that passed their check
	cellsPerOp int           // report cells one op completes
	window     time.Duration // wall time of the timed window

	attempted, failed int64
	errs              []error  // the first few failures
	notes             []string // extra lines for the table

	allocBytes uint64 // heap bytes allocated in the timed window
	gcCycles   uint32
	gcPauseNs  uint64
	rss        []float64 // resident set samples in the timed window, MiB

	// The output check's share of the window, which the metrics leave out:
	// the workers' time in it, and the heap bytes it allocated.
	checkTime  time.Duration
	checkBytes uint64

	layer map[string]metric // traced run: per-layer metrics
}

// timedOp is one op of the timed window: the input it ran on (for lpd-mix
// the request's stratum), its latency, and whether it was traced.
type timedOp struct {
	input  int
	lat    time.Duration
	traced bool
}

// fail counts one failed op and keeps its error if it is among the first.
func (m *measurement) fail(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.attempted++
	m.failed++
	if len(m.errs) < 5 {
		m.errs = append(m.errs, err)
	}
}

// rssEvery is the resident set's sampling period.
const rssEvery = 20 * time.Millisecond

// window brackets the timed window: its wall time, the heap's allocation
// and GC counts, and the resident set, sampled every rssEvery.
type window struct {
	start time.Time
	mem   runtime.MemStats
	stop  chan struct{}
	rss   chan []float64
}

func openWindow() *window {
	w := &window{stop: make(chan struct{}), rss: make(chan []float64, 1)}
	// Collect set-up's garbage and return its free pages to the OS, so the
	// resident set measures the window's own memory.
	debug.FreeOSMemory()
	runtime.ReadMemStats(&w.mem)
	go func() {
		var rss []float64
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			if v, ok := residentMiB(); ok {
				rss = append(rss, v)
			}
			select {
			case <-w.stop:
				w.rss <- rss
				return
			case <-tick.C:
			}
		}
	}()
	w.start = time.Now()
	return w
}

// close ends the window and stores what it measured in m.
func (w *window) close(m *measurement) {
	m.window = time.Since(w.start)
	close(w.stop)
	if m.rss = <-w.rss; len(m.rss) == 0 {
		m.rss = []float64{peakRSSMiB()}
	}
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	m.allocBytes = end.TotalAlloc - w.mem.TotalAlloc
	m.gcCycles = end.NumGC - w.mem.NumGC
	m.gcPauseNs = end.PauseTotalNs - w.mem.PauseTotalNs
}

// untracedLatencies returns the latencies of the untraced ops in
// milliseconds.
func untracedLatencies(ops []timedOp) []float64 {
	var out []float64
	for _, op := range ops {
		if !op.traced {
			out = append(out, float64(op.lat)/1e6)
		}
	}
	return out
}

// endToEnd derives the metrics a user of the system sees. Every name here
// is an end_to_end metric of BENCHMARK.json.
func (m *measurement) endToEnd() map[string]metric {
	allocBytes := m.allocBytes - min(m.checkBytes, m.allocBytes)
	if m.checkBytes > 0 {
		m.note("output check, left out of alloc_mb_per_cell: %.1f KiB per op, %.1f%% of the window's allocation",
			float64(m.checkBytes)/1024/float64(len(m.ops)), 100*float64(m.checkBytes)/float64(m.allocBytes))
	}
	return map[string]metric{
		"setup_s":           {median(seconds(m.setup)), "s"},
		"alloc_mb_per_cell": {float64(allocBytes) / (1 << 20) / float64(max(len(m.ops)*m.cellsPerOp, 1)), "MiB"},
		"rss_mb_p50":        {median(m.rss), "MiB"},
	}
}

// layerMetrics derives the per-layer metrics of a traced run: the layer
// probe's numbers, the window's throughput and the untraced ops' latency,
// the tracing overhead and span coverage, and the Go runtime's GC work
// over the timed window.
func (m *measurement) layerMetrics() map[string]metric {
	out := map[string]metric{}
	maps.Copy(out, m.layer)
	ops := float64(max(len(m.ops), 1))
	// Each worker spent checkTime/workers() of the window checking outputs.
	busy := m.window - m.checkTime/time.Duration(workers())
	if m.checkTime > 0 {
		m.note("output check, left out of cells_per_s: %.3f ms per op, %.1f%% of the workers' time",
			float64(m.checkTime)/1e6/ops, 100*float64(m.checkTime)/float64(m.window*time.Duration(workers())))
	}
	lat := untracedLatencies(m.ops)
	out["cells_per_s"] = metric{float64(len(m.ops)*m.cellsPerOp) / busy.Seconds(), "1/s"}
	out["op_ms_p50"] = metric{percentile(lat, 50), "ms"}
	out["op_ms_p99"] = metric{percentile(lat, 99), "ms"}
	out["runtime.peak_rss_mb"] = metric{peakRSSMiB(), "MiB"}
	out["runtime.gc_cycles_per_kop"] = metric{float64(m.gcCycles) / ops * 1000, "1/kop"}
	out["runtime.gc_pause_ms_per_kop"] = metric{float64(m.gcPauseNs) / 1e6 / ops * 1000, "ms"}
	out["trace.overhead_frac"] = metric{traceOverhead(m.ops), "frac"}
	return out
}

// traceOverhead is the traced ops' total latency over what the same ops
// take untraced, minus 1. An op's untraced time is the mean latency of the
// untraced ops of its input: the traced ops are a small sample, and op
// times differ widely from input to input.
func traceOverhead(ops []timedOp) float64 {
	sum, n := map[int]time.Duration{}, map[int]int{}
	for _, op := range ops {
		if !op.traced {
			sum[op.input] += op.lat
			n[op.input]++
		}
	}
	var traced, untraced float64
	for _, op := range ops {
		if op.traced && n[op.input] > 0 {
			traced += float64(op.lat)
			untraced += float64(sum[op.input]) / float64(n[op.input])
		}
	}
	return traced/untraced - 1
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile interpolates linearly between the closest ranks; NaN for no
// samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles matches Python's statistics.quantiles(xs, n=4), the
// "exclusive" method, which the benchmark's spread check uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		v := math.NaN()
		if n == 1 {
			v = s[0]
		}
		return v, v, v
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// residentMiB is the process's current resident set, where /proc has it.
func residentMiB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20), err == nil
}

// peakRSSMiB is the process's peak resident set (VmHWM), falling back to
// the memory the Go runtime obtained from the OS where /proc is missing.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// note adds a line to the run's table.
func (m *measurement) note(format string, args ...any) {
	m.notes = append(m.notes, fmt.Sprintf(format, args...))
}
