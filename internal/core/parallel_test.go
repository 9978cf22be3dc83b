package core

// Tests for the class-affinity worker pool: worker-count resolution and
// the auto width shared among the runs in flight, bit-identical
// determinism under shuffled chunk-arrival timing, one sealed chunk
// replayed concurrently by every engine class (the -race gate of the
// read-only sharing), and shadow pages recycled across concurrent runs.
// Determinism across worker counts is checked by TestDifferentialMatrix.

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/interp"
)

// TestFanoutWorkers pins MultiRun's worker-count resolution: the auto
// width shared among the runs in flight, the clamp to the coalesced class
// count, explicit widths that ignore the runs in flight, and the single
// worker below FanoutThreshold configurations.
func TestFanoutWorkers(t *testing.T) {
	ncpu := runtime.GOMAXPROCS(0)
	if got := ResolveParallelism(0); got != ncpu {
		t.Errorf("ResolveParallelism(0) = %d, want GOMAXPROCS %d", got, ncpu)
	}
	if got := ResolveParallelism(3); got != 3 {
		t.Errorf("ResolveParallelism(3) = %d, want 3", got)
	}
	check := func(t *testing.T, cases []fanoutCase) {
		t.Helper()
		for _, c := range cases {
			if got := fanoutWorkers(c.nCfgs, c.nClasses, c.parallel, c.inFlight); got != c.want {
				t.Errorf("%s: fanoutWorkers(%d, %d, %d, %d) = %d, want %d",
					c.name, c.nCfgs, c.nClasses, c.parallel, c.inFlight, got, c.want)
			}
		}
	}
	check(t, []fanoutCase{
		{"below-threshold", FanoutThreshold - 1, 3, 8, 1, 1},
		{"pinned-serial", 14, 10, 1, 1, 1},
		{"pinned-width", 14, 10, 4, 1, 4},
		{"pinned-width-ignores-in-flight", 14, 10, 4, 64, 4},
		{"pinned-serial-ignores-in-flight", 14, 10, 1, 64, 1},
		{"clamped-to-classes", 14, 3, 64, 1, 3},
		{"auto-lone", 14, 64, 0, 1, ncpu},
		{"auto-lone-clamped", 14, 3, 0, 1, min(ncpu, 3)},
		{"auto-saturated", 14, 64, 0, ncpu, 1},
		{"auto-oversubscribed", 14, 64, 0, ncpu + 1, 1},
		{"no-engines", FanoutThreshold, 0, 4, 1, 1},
	})

	// The same resolution at a fixed GOMAXPROCS, so a lone auto run is
	// seen to get more than one worker even on a one-CPU box.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	check(t, []fanoutCase{
		{"gomaxprocs4-lone", 14, 64, 0, 1, 4},
		{"gomaxprocs4-two-in-flight", 14, 64, 0, 2, 2},
		{"gomaxprocs4-three-in-flight", 14, 64, 0, 3, 1},
		{"gomaxprocs4-saturated", 14, 64, 0, 4, 1},
		{"gomaxprocs4-pinned", 14, 64, 3, 4, 3},
	})
}

// fanoutCase is one row of TestFanoutWorkers: fanoutWorkers' arguments,
// the runs in flight included, and the width it must return.
type fanoutCase struct {
	name                                string
	nCfgs, nClasses, parallel, inFlight int
	want                                int
}

// workerProbe is a trace sink that counts the fan-out pool's worker
// goroutines at its first write, which the trace writer makes mid-run
// once its buffer fills: by then a pooled MultiRun has started its
// workers, and they run until the run ends.
type workerProbe struct{ workers int }

func (p *workerProbe) Write(b []byte) (int, error) {
	if p.workers < 0 {
		stacks := make([]byte, 1<<20)
		stacks = stacks[:runtime.Stack(stacks, true)]
		p.workers = bytes.Count(stacks, []byte("(*workerPool).work("))
	}
	return len(b), nil
}

// TestMultiRunSharesAutoWidth drives the count through MultiRun itself: a
// lone width-0 run starts a pool worker per CPU (clamped to its classes),
// while a width-0 run that starts with GOMAXPROCS other runs in flight
// replays inline and starts none. An explicit width keeps its pool.
func TestMultiRunSharesAutoWidth(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	info, err := AnalyzeSource("share", traceHeavySrc)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := PaperConfigs()
	set, err := prepareEngines(info, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	classes := len(set.engines)
	workers := func(p int) int {
		t.Helper()
		probe := workerProbe{workers: -1}
		if _, err := MultiRun(info, cfgs, RunOptions{Parallelism: p, Trace: &probe}); err != nil {
			t.Fatal(err)
		}
		if probe.workers < 0 {
			t.Fatal("the trace writer never wrote mid-run")
		}
		return probe.workers
	}
	if got, want := workers(0), min(4, classes); got != want || got < 2 {
		t.Errorf("lone width-0 run started %d pool workers, want %d", got, want)
	}
	runsInFlight.Add(4) // four other runs in flight
	defer runsInFlight.Add(-4)
	if got := workers(0); got != 0 {
		t.Errorf("width-0 run among 4 in flight started %d pool workers, want 0 (inline)", got)
	}
	if got, want := workers(2), min(2, classes); got != want {
		t.Errorf("width-2 run among 4 in flight started %d pool workers, want %d", got, want)
	}
}

// noRunsInFlight fails the test unless every MultiRun it started has
// given back its in-flight slot: a leaked slot would quietly narrow the
// auto width of every later run in the process.
func noRunsInFlight(t *testing.T) {
	t.Helper()
	if n := runsInFlight.Load(); n != 0 {
		t.Errorf("%d runs still counted in flight, want 0", n)
	}
}

// jitterLog is an eventLog whose consumer sleeps pseudo-randomly, so the
// workers of a pool pick chunks up in a deliberately shuffled order
// relative to each other.
type jitterLog struct {
	eventLog
	rng *rand.Rand
}

func (j *jitterLog) Tick(n int64) {
	if j.rng.Intn(64) == 0 {
		time.Sleep(time.Duration(j.rng.Intn(50)) * time.Microsecond)
	}
	j.eventLog.Tick(n)
}

// TestWorkerPoolShuffledArrival drives the pool machinery directly with
// consumers that stall at random: however the workers interleave, each
// consumer must observe the exact event sequence, in order.
func TestWorkerPoolShuffledArrival(t *testing.T) {
	info, err := AnalyzeSource("shuffle", doallSrc)
	if err != nil {
		t.Fatal(err)
	}
	lm := info.Loops[0]
	emit := func(h interp.Hooks) {
		for i := 0; i < 6*chunkRecs+257; i++ {
			switch i % 4 {
			case 0:
				h.Tick(int64(i))
			case 1:
				h.EnterLoop(lm, int64(i), nil)
			case 2:
				h.Load(int64(i * 8))
			case 3:
				h.Store(int64(i * 8))
			}
		}
		h.ExitLoop(lm)
	}
	var want eventLog
	emit(&want)

	logs := []*jitterLog{
		{rng: rand.New(rand.NewSource(1))},
		{rng: rand.New(rand.NewSource(2))},
		{rng: rand.New(rand.NewSource(3))},
		{rng: rand.New(rand.NewSource(4))},
		{rng: rand.New(rand.NewSource(5))},
	}
	// 2 workers over 5 consumers: groups of 3 and 2, shuffling both the
	// inter-worker timing and the intra-group replay interleaving.
	groups := affinityGroups(logs, 2)
	if len(groups[0]) != 3 || len(groups[1]) != 2 {
		t.Fatalf("group sizes %d+%d, want 3+2", len(groups[0]), len(groups[1]))
	}
	replayers := make([]func(*evChunk), len(groups))
	for i, g := range groups {
		replayers[i] = func(c *evChunk) {
			for _, l := range g {
				replaySealed(l, c)
			}
		}
	}
	pool := startWorkers(replayers)
	tee := newChunkTee(pool.publish)
	emit(tee)
	tee.finish()
	if p := pool.close(); p != nil {
		t.Fatalf("unexpected worker panic: %v", p)
	}
	for i, l := range logs {
		sameEvents(t, fmt.Sprintf("consumer %d", i), &l.eventLog, &want)
	}
}

// TestSharedChunkRace is the -race gate of chunk sharing: one sealed
// chunk — spans, memory records, facts and payloads — is replayed
// concurrently by an engine per paper configuration. The chunk is sealed,
// facts included, once on this goroutine and read by all engines; any
// write to shared chunk state is a race-detector failure, and every engine
// must still match a serially-replayed twin bit-for-bit.
func TestSharedChunkRace(t *testing.T) {
	info, err := AnalyzeSource("race", doallSrc)
	if err != nil {
		t.Fatal(err)
	}
	lm := info.Loops[0]

	// A chunk with dense load/store spans across regions, including
	// stack addresses under the cactus filter, and loads that find no
	// recorded write beside loads that find one of this iteration or of
	// the one before.
	c := sealOne(t, func(w interp.Hooks) {
		w.EnterLoop(lm, int64(interp.StackTop)-64, nil)
		for iter := 0; iter < 10; iter++ {
			w.IterLoop(lm, int64(interp.StackTop)-64, nil)
			base := int64(interp.HeapBase) + int64(iter%3)*512
			prev := int64(interp.HeapBase) + int64((iter+2)%3)*512
			for j := int64(0); j < 40; j++ {
				w.Tick(1)
				w.Store(base + j)
			}
			for j := int64(0); j < 40; j++ {
				w.Tick(1)
				w.Load(base + 4096 + j) // never written
			}
			for j := int64(0); j < 8; j++ {
				w.Tick(1)
				w.Load(base + j) // just stored: the tracker finds a record
				w.Load(prev + j) // stored last iteration: a fact
			}
		}
		w.ExitLoop(lm)
	})

	cfgs := PaperConfigs()
	serial, run := factRoute(info, cfgs)
	run.seal(c)
	if len(c.facts) == 0 {
		t.Fatal("the chunk carries no facts")
	}
	for _, e := range serial {
		e.replayChunk(c)
	}

	var wg sync.WaitGroup
	concurrent := make([]*Engine, len(cfgs))
	for i, cfg := range cfgs {
		wg.Add(1)
		go func(i int, cfg Config) {
			defer wg.Done()
			// Fresh engine per repetition; only the last survives.
			for rep := 0; rep < 4; rep++ {
				engines, _ := factRoute(info, []Config{cfg})
				engines[0].replayChunk(c)
				concurrent[i] = engines[0]
			}
		}(i, cfg)
	}
	wg.Wait()
	for i := range cfgs {
		want := serial[i].Report("race")
		got := concurrent[i].Report("race")
		if err := CompareReports(want, got); err != nil {
			t.Errorf("%s: concurrent chunk readers diverged from serial replay: %v", cfgs[i], err)
		}
	}
}

// TestShadowPageRecycling runs MultiRun and ReplayTraceMulti from four
// goroutines at once, for several rounds over the fanoutSamples programs,
// so shadow pages one run releases are reused by the run trackers of runs
// on other goroutines, at other nesting levels, while pool workers replay
// the facts found in them.
// MultiRun takes widths 0, 1 and 2, so width-0 runs resolve their width
// while other runs are in flight. Every report must equal
// per-configuration Run's. `make race` runs it under the race detector.
func TestShadowPageRecycling(t *testing.T) {
	cfgs := PaperConfigs()
	type sample struct {
		name  string
		info  *analysis.ModuleInfo
		trace []byte
		want  []*Report
	}
	names := make([]string, 0, len(fanoutSamples))
	for name := range fanoutSamples {
		names = append(names, name)
	}
	slices.Sort(names)
	samples := make([]sample, len(names))
	for i, name := range names {
		info, trace, want := record(t, name, fanoutSamples[name], cfgs)
		samples[i] = sample{name, info, trace, want}
	}
	const goroutines, rounds = 4, 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for k := range samples {
					s := &samples[(k+g)%len(samples)]
					var got []*Report
					var err error
					how := "MultiRun"
					if (g+round+k)%2 == 0 {
						got, err = MultiRun(s.info, cfgs, RunOptions{Parallelism: (g + round) % 3})
					} else {
						how = "ReplayTraceMulti"
						got, err = ReplayTraceMulti(s.name, s.info, cfgs, RunOptions{}, bytes.NewReader(s.trace))
					}
					if err != nil {
						t.Errorf("goroutine %d round %d: %s %s: %v", g, round, how, s.name, err)
						return
					}
					for i := range cfgs {
						if err := CompareReports(s.want[i], got[i]); err != nil {
							t.Errorf("goroutine %d round %d: %s %s/%s: %v", g, round, how, s.name, cfgs[i], err)
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	noRunsInFlight(t)
}
