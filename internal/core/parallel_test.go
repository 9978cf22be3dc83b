package core

// Tests for the class-affinity worker pool: worker-count resolution,
// bit-identical determinism across worker counts and shuffled
// chunk-arrival timing, concurrent read-only sharing of one
// chunk's span summaries (the -race gate of the precomputation pass),
// shadow pages recycled across concurrent runs, and the memRun summary
// contract.

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
// width, the clamp to the coalesced class count, and the single worker
// below FanoutThreshold configurations.
func TestFanoutWorkers(t *testing.T) {
	ncpu := runtime.GOMAXPROCS(0)
	if got := ResolveParallelism(0); got != ncpu {
		t.Errorf("ResolveParallelism(0) = %d, want GOMAXPROCS %d", got, ncpu)
	}
	if got := ResolveParallelism(3); got != 3 {
		t.Errorf("ResolveParallelism(3) = %d, want 3", got)
	}
	cases := []struct {
		name                      string
		nCfgs, nClasses, parallel int
		want                      int
	}{
		{"below-threshold", FanoutThreshold - 1, 3, 8, 1},
		{"pinned-serial", 14, 10, 1, 1},
		{"pinned-width", 14, 10, 4, 4},
		{"clamped-to-classes", 14, 3, 64, 3},
		{"auto", 14, 64, 0, ncpu},
		{"no-engines", FanoutThreshold, 0, 4, 1},
	}
	for _, c := range cases {
		if got := fanoutWorkers(c.nCfgs, c.nClasses, c.parallel); got != c.want {
			t.Errorf("%s: fanoutWorkers(%d, %d, %d) = %d, want %d",
				c.name, c.nCfgs, c.nClasses, c.parallel, got, c.want)
		}
	}
}

// TestParallelDeterminism is the pool's determinism gate: reports AND
// recorded binary traces must be bit-identical across Parallelism ∈
// {1, 2, NumCPU, 64} and across repeated runs (repeats reshuffle goroutine
// scheduling, i.e. the relative timing with which workers pick chunks up).
func TestParallelDeterminism(t *testing.T) {
	cfgs := PaperConfigs()
	widths := []int{1, 2, runtime.NumCPU(), 64}
	for name, src := range map[string]string{
		"infrequent": infrequentSrc,
		"stack":      stackSrc,
		"dep1":       dep1Src,
	} {
		info, err := AnalyzeSource(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var wantTrace bytes.Buffer
		want := make([]*Report, len(cfgs))
		for i, cfg := range cfgs {
			opts := RunOptions{}
			if i == 0 {
				opts.Trace = &wantTrace
			}
			if want[i], err = Run(info, cfg, opts); err != nil {
				t.Fatalf("%s/%s: %v", name, cfg, err)
			}
		}
		for _, p := range widths {
			for rep := 0; rep < 3; rep++ {
				var trace bytes.Buffer
				got, err := MultiRun(info, cfgs, RunOptions{Parallelism: p, Trace: &trace})
				if err != nil {
					t.Fatalf("%s p=%d rep=%d: %v", name, p, rep, err)
				}
				for i := range cfgs {
					if err := CompareReports(want[i], got[i]); err != nil {
						t.Errorf("%s p=%d rep=%d %s: %v", name, p, rep, cfgs[i], err)
					}
				}
				if !bytes.Equal(wantTrace.Bytes(), trace.Bytes()) {
					t.Errorf("%s p=%d rep=%d: recorded trace differs from the per-config reference (%d vs %d bytes)",
						name, p, rep, trace.Len(), wantTrace.Len())
				}
			}
		}
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

// TestSpanSummarySharedRace is the -race gate of the span-level
// precomputation pass: one sealed chunk — spans, memory records, and
// conflict summaries — is replayed concurrently by every coalesced engine
// class of the paper grid, each with its own tracker. The summaries are
// computed once on this goroutine and consulted read-only by all engines;
// any write to shared chunk state is a race-detector failure, and every
// engine must still match a serially-replayed twin bit-for-bit.
func TestSpanSummarySharedRace(t *testing.T) {
	info, err := AnalyzeSource("race", doallSrc)
	if err != nil {
		t.Fatal(err)
	}
	lm := info.Loops[0]

	// A chunk with dense load/store spans across regions, including
	// stack addresses under the cactus filter and pure-store and
	// pure-load stretches the summary fast paths trigger on.
	c := sealOne(t, func(w interp.Hooks) {
		w.EnterLoop(lm, int64(interp.StackTop)-64, nil)
		for iter := 0; iter < 10; iter++ {
			w.IterLoop(lm, int64(interp.StackTop)-64, nil)
			base := int64(interp.HeapBase) + int64(iter%3)*512
			for j := int64(0); j < 40; j++ {
				w.Tick(1)
				w.Store(base + j)
			}
			for j := int64(0); j < 40; j++ {
				w.Tick(1)
				w.Load(base + 4096 + j) // disjoint: the skip path
			}
			for j := int64(0); j < 8; j++ {
				w.Tick(1)
				w.Load(base + j) // overlapping: the probe path
			}
		}
		w.ExitLoop(lm)
	})

	cfgs := PaperConfigs()
	serial := make([]*Engine, len(cfgs))
	for i, cfg := range cfgs {
		serial[i] = NewEngineTracker(info, cfg, TrackerShadow)
		serial[i].replayChunkBatched(c)
	}

	var wg sync.WaitGroup
	concurrent := make([]*Engine, len(cfgs))
	for i, cfg := range cfgs {
		wg.Add(1)
		go func(i int, cfg Config) {
			defer wg.Done()
			e := NewEngineTracker(info, cfg, TrackerShadow)
			for rep := 0; rep < 4; rep++ {
				if rep == 0 {
					e.replayChunkBatched(c)
				} else {
					// Fresh engine per repetition; only the last survives.
					e = NewEngineTracker(info, cfg, TrackerShadow)
					e.replayChunkBatched(c)
				}
			}
			concurrent[i] = e
		}(i, cfg)
	}
	wg.Wait()
	for i := range cfgs {
		want := serial[i].Report("race")
		got := concurrent[i].Report("race")
		if err := CompareReports(want, got); err != nil {
			t.Errorf("%s: concurrent summary readers diverged from serial replay: %v", cfgs[i], err)
		}
	}
}

// TestShadowPageRecycling runs MultiRun and ReplayTraceMulti from four
// goroutines at once, for several rounds over the fanoutSamples programs,
// so shadow pages one run releases are reused by runs on other goroutines
// (pool workers included), in other trackers and at other nesting levels.
// Every report must equal per-configuration Run's. `make race` runs it
// under the race detector.
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
						got, err = MultiRun(s.info, cfgs, RunOptions{Parallelism: 1 + (g+round)%2})
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
}

// TestMemRunSummaryContract: for spans engineered onto each fast path —
// pure stores, disjoint pure loads, disjoint mixed, overlapping, and
// self-conflicting — memRun with the span's summary must return the
// exact hit list memRun without a summary returns, on identical state.
func TestMemRunSummaryContract(t *testing.T) {
	info := trackerDiffInfo()
	heap := int64(interp.HeapBase)
	spans := map[string][]memEv{
		"pure-store": {
			mkEv(heap+10, memStore, 0), mkEv(heap+11, memStore, 1),
		},
		"disjoint-loads": {
			mkEv(heap+500, memLoad, 0), mkEv(heap+501, memLoad, 1),
		},
		"disjoint-mixed": {
			mkEv(heap+600, memStore, 0), mkEv(heap+900, memLoad, 1),
		},
		"overlapping-loads": {
			mkEv(heap+10, memLoad, 0), mkEv(heap+11, memLoad, 1),
		},
		"self-conflict": {
			mkEv(heap+700, memStore, 0), mkEv(heap+700, memLoad, 1),
		},
	}
	for name, evs := range spans {
		runFor := func(sum *spanSum) (int, []int32, []writeRec) {
			sh := newShadowTracker(info)
			inst := &instance{depth: 0}
			sh.enter(inst)
			// Pre-span state: writes at heap+10..heap+19 from iteration 0.
			for j := int64(0); j < 10; j++ {
				r, idx := region(heap + 10 + j)
				sh.storeAt(inst, r, idx, heap+10+j, writeRec{iter: 0, off: j})
			}
			hitIdx := make([]int32, len(evs))
			hitRecs := make([]writeRec, len(evs))
			n := sh.memRun(inst, evs, 2, 100, 0, hitIdx, hitRecs, sum)
			return n, hitIdx[:n], hitRecs[:n]
		}
		sum := summarizeSpan(evs)
		nWant, idxWant, recWant := runFor(nil)
		nGot, idxGot, recGot := runFor(&sum)
		if nWant != nGot {
			t.Errorf("%s: hit count %d with summary, %d without", name, nGot, nWant)
			continue
		}
		for h := 0; h < nWant; h++ {
			if idxWant[h] != idxGot[h] || recWant[h] != recGot[h] {
				t.Errorf("%s: hit %d diverged under summary: (%d,%+v) vs (%d,%+v)",
					name, h, idxGot[h], recGot[h], idxWant[h], recWant[h])
			}
		}
	}
}

// mkEv builds one memory record with its region classification.
func mkEv(addr int64, kind uint8, tick int64) memEv {
	r, idx := region(addr)
	return memEv{idx: idx, addr: addr, tick: tick, kind: kind, reg: int8(r)}
}
