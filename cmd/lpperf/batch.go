package main

// The batch workloads: paper-grid, replay-grid and small-programs. Their
// ops are independent. A pass visits every input once, in an order drawn
// from the seed, and workers() goroutines pull the ops.

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	lp "loopapalooza"
	"loopapalooza/internal/analysis"
	"loopapalooza/internal/core"
	"loopapalooza/internal/lang/lpcgen"
)

// batch is one batch workload's op over input i, in plain and traced form,
// and the check of its reports against the reference.
type batch struct {
	n      int // inputs per pass
	cells  int // report cells per op
	op     func(i int) ([]*core.Report, error)
	traced func(i int, t *opTrace) ([]*core.Report, error)
	check  func(i int, reps []*core.Report) error
}

// passOrder is the order in which pass p visits n inputs.
func passOrder(seed int64, p, n int) []int {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(p))).Perm(n)
}

// cursor hands out ops, pass after pass, until its pass limit (0: none)
// or its deadline (zero: none).
type cursor struct {
	mu        sync.Mutex
	seed      int64
	n, passes int
	deadline  time.Time
	pass, pos int
	order     []int
}

// next returns the input of the next op and the op's sequence number.
func (c *cursor) next() (i, seq int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.deadline.IsZero() && !time.Now().Before(c.deadline) {
		return 0, 0, false
	}
	if c.order == nil || c.pos == len(c.order) {
		if c.passes > 0 && c.pass == c.passes {
			return 0, 0, false
		}
		c.order, c.pos = passOrder(c.seed, c.pass, c.n), 0
		c.pass++
	}
	c.pos++
	return c.order[c.pos-1], (c.pass-1)*c.n + c.pos - 1, true
}

// drive runs the ops c hands out. Inside a timed window w (nil: untimed)
// it records each op's latency, and in a traced run it runs the ops
// e.tracedOp picks in their traced form. Reports are checked after the
// op's timer stops, and the time the checks take is recorded apart.
func (b *batch) drive(e *env, m *measurement, c *cursor, w *window) {
	var wg sync.WaitGroup
	for range workers() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ops []timedOp
			var done int64
			var checkTime time.Duration
			for {
				i, seq, more := c.next()
				if !more {
					break
				}
				var t *opTrace
				t0 := time.Now()
				if w != nil && e.tracedOp(seq) {
					t = e.spans.begin("op", t0)
				}
				var reps []*core.Report
				var err error
				if t != nil {
					reps, err = b.traced(i, t)
				} else {
					reps, err = b.op(i)
				}
				t1 := time.Now()
				if t != nil {
					t.end(t1)
				}
				if err == nil {
					err = b.check(i, reps)
				}
				checkTime += time.Since(t1)
				if err != nil {
					m.fail(err)
					continue
				}
				done++
				if w != nil {
					ops = append(ops, timedOp{input: i, lat: t1.Sub(t0), traced: t != nil})
				}
			}
			m.mu.Lock()
			defer m.mu.Unlock()
			m.attempted += done
			m.ops = append(m.ops, ops...)
			if w != nil {
				m.checkTime += checkTime
			}
		}()
	}
	wg.Wait()
}

// checkAllocs measures the heap bytes the output check allocates on each
// input, one untimed op and check at a time, and charges the timed ops'
// checks to m.checkBytes, which the end-to-end metrics leave out.
func (b *batch) checkAllocs(m *measurement) error {
	perInput := make([]uint64, b.n)
	var before, after runtime.MemStats
	for i := range b.n {
		reps, err := b.op(i)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&before)
		err = b.check(i, reps)
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		perInput[i] = after.TotalAlloc - before.TotalAlloc
	}
	m.attempted += int64(b.n)
	for _, op := range m.ops {
		m.checkBytes += perInput[op.input]
	}
	return nil
}

// warmup runs one untimed pass.
func (b *batch) warmup(e *env, m *measurement) {
	b.drive(e, m, &cursor{seed: ^e.seed, n: b.n, passes: 1}, nil)
}

// timed runs passes until e.dur has passed.
func (b *batch) timed(e *env, m *measurement) {
	m.cellsPerOp = b.cells
	w := openWindow()
	b.drive(e, m, &cursor{seed: e.seed, n: b.n, deadline: w.start.Add(e.dur)}, w)
	w.close(m)
}

// finish completes a run after its timed window: a plain run measures what
// its output checks allocated; a traced run probes the layers on ins and
// the serve layer on the suite kernels.
func (b *batch) finish(e *env, m *measurement, ins []input) error {
	if !e.traced() {
		return b.checkAllocs(m)
	}
	if err := e.probe(m, ins); err != nil {
		return err
	}
	sm, err := serveProbe(e, m)
	if err != nil {
		return err
	}
	maps.Copy(m.layer, sm)
	return nil
}

// runPaperGrid: each op analyzes one suite kernel and studies it under the
// fourteen paper configurations, as lpbench, lpa -all and /v1/sweep do.
// Set-up is one warm-up pass.
func runPaperGrid(e *env, m *measurement) error {
	ks := e.kernels()
	cfgs := core.PaperConfigs()
	b := &batch{
		n:     len(ks),
		cells: len(cfgs),
		op: func(i int) ([]*core.Report, error) {
			info, err := lp.Analyze(ks[i].name, ks[i].src)
			if err != nil {
				return nil, err
			}
			return lp.StudyMany(info, cfgs, lp.RunOptions{})
		},
		traced: func(i int, t *opTrace) ([]*core.Report, error) {
			return studyLayers(t, ks[i], func(info *analysis.ModuleInfo) ([]*core.Report, error) {
				return core.MultiRun(info, cfgs, core.RunOptions{})
			})
		},
		check: func(i int, reps []*core.Report) error { return e.digests.check(ks[i].name, cfgs, reps) },
	}
	if err := e.setup(m, func() error { b.warmup(e, m); return nil }, nil); err != nil {
		return err
	}
	b.timed(e, m)
	return b.finish(e, m, ks)
}

// runReplayGrid: set-up records every kernel's event trace once; each op
// then replays one trace under the fourteen paper configurations, which
// runs the engines and the trace decoder but neither the front end nor the
// VM. Set-up is the recording plus one warm-up pass.
func runReplayGrid(e *env, m *measurement) error {
	ks := e.kernels()
	cfgs := core.PaperConfigs()
	infos := make([]*analysis.ModuleInfo, len(ks))
	traces := make([][]byte, len(ks))
	replay := func(i int) ([]*core.Report, error) {
		return core.ReplayTraceMulti(ks[i].name, infos[i], cfgs, core.RunOptions{}, bytes.NewReader(traces[i]))
	}
	b := &batch{
		n:     len(ks),
		cells: len(cfgs),
		op:    replay,
		traced: func(i int, t *opTrace) (reps []*core.Report, err error) {
			t.layer("core", func() { reps, err = replay(i) })
			return reps, err
		},
		check: func(i int, reps []*core.Report) error { return e.digests.check(ks[i].name, cfgs, reps) },
	}
	record := func() error {
		for i, k := range ks {
			info, err := lp.Analyze(k.name, k.src)
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			reps, err := lp.StudyMany(info, cfgs, lp.RunOptions{Trace: &buf})
			if err == nil {
				err = b.check(i, reps)
			}
			if err != nil {
				return fmt.Errorf("recording %s: %w", k.name, err)
			}
			infos[i], traces[i] = info, buf.Bytes()
		}
		return nil
	}
	err := e.setup(m, func() error {
		if err := record(); err != nil {
			return err
		}
		b.warmup(e, m)
		return nil
	}, nil)
	if err != nil {
		return err
	}
	b.timed(e, m)
	return b.finish(e, m, ks)
}

// programSource derives the k-th candidate program of a seed.
func programSource(seed int64, k int) string {
	decisions := make([]byte, 256)
	rand.New(rand.NewSource(seed*1_000_003 + int64(k) + 1<<40)).Read(decisions)
	return lpcgen.Program(decisions)
}

// program is a small-programs input with its reference report under
// BestHELIX, taken from one lp.StudyMany over the paper configurations.
type program struct {
	input
	ref *core.Report
}

// smallPrograms derives n programs from the seed: the first n candidates
// that compile and run, each with its reference reports.
func smallPrograms(seed int64, n int) []program {
	var out []program
	for next := 0; len(out) < n; {
		cands := make([]*program, n-len(out))
		parallelFor(len(cands), func(j int) { cands[j] = deriveProgram(seed, next+j) })
		for _, p := range cands {
			if p != nil {
				out = append(out, *p)
			}
		}
		next += len(cands)
	}
	return out
}

// deriveProgram builds candidate k of a seed with its reference, or nil if
// the candidate fails to compile or run.
func deriveProgram(seed int64, k int) *program {
	in := input{name: fmt.Sprintf("gen-%d", k), src: programSource(seed, k)}
	info, err := lp.Analyze(in.name, in.src)
	if err != nil {
		return nil
	}
	cfgs := core.PaperConfigs()
	reps, err := lp.StudyMany(info, cfgs, lp.RunOptions{})
	if err != nil {
		return nil
	}
	best := slices.Index(cfgs, core.BestHELIX())
	return &program{input: in, ref: reps[best]}
}

// parallelFor calls f(i) for every i in [0, n) on workers() goroutines.
func parallelFor(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// runSmallPrograms: each op compiles one generated program and studies it
// under BestHELIX, the lpa / lp.Study / lpd cache-miss shape, on the
// single-configuration path. Set-up derives the programs and their
// references, then runs one warm-up pass.
func runSmallPrograms(e *env, m *measurement) error {
	var progs []program
	best := core.BestHELIX()
	b := &batch{
		cells: 1,
		op: func(i int) ([]*core.Report, error) {
			r, err := lp.Study(progs[i].name, progs[i].src, best)
			return []*core.Report{r}, err
		},
		traced: func(i int, t *opTrace) ([]*core.Report, error) {
			return studyLayers(t, progs[i].input, func(info *analysis.ModuleInfo) ([]*core.Report, error) {
				r, err := core.Run(info, best, core.RunOptions{})
				return []*core.Report{r}, err
			})
		},
		check: func(i int, reps []*core.Report) error { return core.CompareReports(reps[0], progs[i].ref) },
	}
	err := e.setup(m, func() error {
		progs = smallPrograms(e.seed, e.scale.programs)
		b.n = len(progs)
		b.warmup(e, m)
		return nil
	}, nil)
	if err != nil {
		return err
	}
	b.timed(e, m)
	ins := make([]input, min(e.scale.probe, len(progs)))
	for i := range ins {
		ins[i] = progs[i].input
	}
	return b.finish(e, m, ins)
}

// probe finishes a traced run: it checks the spans and runs the layer probe
// over ins.
func (e *env) probe(m *measurement, ins []input) error {
	if m.layer == nil {
		m.layer = map[string]metric{}
	}
	e.spans.summarize(m)
	lm, err := probeLayers(ins)
	if err != nil {
		return err
	}
	maps.Copy(m.layer, lm)
	return nil
}
