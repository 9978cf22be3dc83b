package main

// The traced run. Spans are recorded from outside the program, around the
// calls a workload op makes into each layer (lang, analysis, bytecode,
// core, serve), kept in memory and written out at exit. The layer probe
// then times every layer's public entry points on the workload's inputs,
// one call at a time, which yields the per-layer metrics.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/bytecode"
	"loopapalooza/internal/core"
	"loopapalooza/internal/interp"
	"loopapalooza/internal/ir"
	"loopapalooza/internal/lang"
)

// traceEvery is how many timed ops of a traced run share one traced op.
// The untraced rest give the run's throughput and latency metrics: at
// least 1,000 ops per run, so op_ms_p99 has ten samples beyond it. The
// traced ops share their period and mix.
const traceEvery = 8

// tracedOp reports whether the timed op with sequence number seq runs
// traced.
func (e *env) tracedOp(seq int) bool { return e.traced() && seq%traceEvery == 0 }

// span is one timed interval of one op. Times are nanoseconds since the
// run started.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"` // index of the parent span; -1 for an op
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// spanLog holds every span of a run.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	ops   int64
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// opTrace collects one op's spans; the op's root span comes first.
type opTrace struct {
	log   *spanLog
	spans []span
}

// begin opens an op's root span at t.
func (l *spanLog) begin(name string, t time.Time) *opTrace {
	return &opTrace{log: l, spans: []span{{Name: name, Parent: -1, Start: t.Sub(l.epoch).Nanoseconds()}}}
}

// add records a child span of the op.
func (t *opTrace) add(name string, start, end time.Time) {
	t.spans = append(t.spans, span{Name: name, Parent: 0,
		Start: start.Sub(t.log.epoch).Nanoseconds(), End: end.Sub(t.log.epoch).Nanoseconds()})
}

// layer runs f as a child span of the op named after the layer it calls.
func (t *opTrace) layer(name string, f func()) {
	start := time.Now()
	f()
	t.add(name, start, time.Now())
}

// end closes the op at t and moves its spans into the log.
func (t *opTrace) end(at time.Time) {
	t.spans[0].End = at.Sub(t.log.epoch).Nanoseconds()
	l := t.log
	l.mu.Lock()
	defer l.mu.Unlock()
	base := len(l.spans)
	for _, s := range t.spans {
		s.Op = l.ops
		if s.Parent >= 0 {
			s.Parent += base
		}
		l.spans = append(l.spans, s)
	}
	l.ops++
}

// writeFile stores the spans as JSON.
func (l *spanLog) writeFile(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(struct {
		Epoch time.Time `json:"epoch"`
		Spans []span    `json:"spans"`
	}{l.epoch, l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// summarize derives each layer's self time (its spans' durations minus
// the parts their children cover) and checks that the layers' self times
// add up to within 10% of the traced ops' time. It records the share in
// m.layer and a table line per layer.
func (l *spanLog) summarize(m *measurement) {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]int64{}
	var opTime, layerTime int64
	for i, s := range l.spans {
		d := s.End - s.Start - children[i]
		if s.Parent < 0 {
			opTime += s.End - s.Start
			continue
		}
		self[s.Name] += d
		layerTime += d
	}
	if l.ops == 0 || opTime == 0 {
		m.fail(fmt.Errorf("trace: no traced ops"))
		return
	}
	frac := float64(layerTime) / float64(opTime)
	m.layer["trace.self_sum_frac"] = metric{frac, "frac"}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m.note("span %-9s self %8.3f ms/op  %5.1f%% of op time", n,
			float64(self[n])/1e6/float64(l.ops), 100*float64(self[n])/float64(opTime))
	}
	if frac < 0.9 || frac > 1.1 {
		m.fail(fmt.Errorf("trace: layer self times add up to %.1f%% of the traced op time, outside 90-110%%", 100*frac))
	}
}

// studyLayers is one compile-and-study op split at the layer boundaries:
// the same calls lp.Analyze and lp.Study / lp.StudyMany make, each timed
// as a span of t. study runs the limit study on the analyzed module.
func studyLayers(t *opTrace, in input, study func(*analysis.ModuleInfo) ([]*core.Report, error)) ([]*core.Report, error) {
	var (
		mod  *ir.Module
		info *analysis.ModuleInfo
		reps []*core.Report
		err  error
	)
	if t.layer("lang", func() { mod, err = lang.Compile(in.name, in.src) }); err != nil {
		return nil, err
	}
	if t.layer("analysis", func() { info, err = analysis.AnalyzeModule(mod) }); err != nil {
		return nil, err
	}
	if t.layer("bytecode", func() { _, err = bytecode.For(info) }); err != nil {
		return nil, err
	}
	t.layer("core", func() { reps, err = study(info) })
	return reps, err
}

// eventCounter counts the events of a replayed trace.
type eventCounter struct{ loads, stores, enters, iters int64 }

func (c *eventCounter) Tick(int64)                                          {}
func (c *eventCounter) EnterLoop(*analysis.LoopMeta, int64, []interp.Val)   { c.enters++ }
func (c *eventCounter) IterLoop(*analysis.LoopMeta, int64, []interp.LCDObs) { c.iters++ }
func (c *eventCounter) ExitLoop(*analysis.LoopMeta)                         {}
func (c *eventCounter) Load(int64)                                          { c.loads++ }
func (c *eventCounter) Store(int64)                                         { c.stores++ }

func instrCount(m *ir.Module) int64 {
	var n int64
	for _, f := range m.Funcs {
		n += int64(f.InstrCount())
	}
	return n
}

// probeLayers calls each layer's public entry points once per input, in
// pipeline order, and returns their total times and work counts over the
// inputs.
func probeLayers(ins []input) (map[string]metric, error) {
	cfgs := core.PaperConfigs()
	var t struct{ lang, analysis, lower, vm, multi, run, record, decode, replay, replay1 time.Duration }
	var ev eventCounter
	var irFront, irAnalyzed, loops, static, fused, ticks, traceBytes int64
	for _, in := range ins {
		var (
			mod  *ir.Module
			info *analysis.ModuleInfo
			prog *bytecode.Program
			res  interp.Result
			buf  bytes.Buffer
			err  error
		)
		// step adds the duration of f to *d, unless an earlier step failed.
		step := func(d *time.Duration, f func()) {
			if err == nil {
				t0 := time.Now()
				f()
				*d += time.Since(t0)
			}
		}
		step(&t.lang, func() { mod, err = lang.Compile(in.name, in.src) })
		if err == nil {
			irFront += instrCount(mod)
		}
		step(&t.analysis, func() { info, err = analysis.AnalyzeModule(mod) })
		step(&t.lower, func() { prog, err = bytecode.For(info) })
		step(&t.vm, func() { res, err = bytecode.NewVM(prog, interp.Config{Hooks: interp.NopHooks{}}).Run("main") })
		step(&t.multi, func() { _, err = core.MultiRun(info, cfgs, core.RunOptions{}) })
		step(&t.run, func() { _, err = core.Run(info, core.BestHELIX(), core.RunOptions{}) })
		step(&t.record, func() { _, err = core.MultiRun(info, cfgs, core.RunOptions{Trace: &buf}) })
		step(&t.decode, func() {
			var tr *core.TraceReader
			if tr, err = core.NewTraceReader(bytes.NewReader(buf.Bytes()), info); err == nil {
				err = tr.Replay(&ev)
			}
		})
		step(&t.replay, func() {
			_, err = core.ReplayTraceMulti(in.name, info, cfgs, core.RunOptions{}, bytes.NewReader(buf.Bytes()))
		})
		step(&t.replay1, func() {
			_, err = core.ReplayTrace(in.name, info, core.BestHELIX(), core.RunOptions{}, bytes.NewReader(buf.Bytes()))
		})
		if err != nil {
			return nil, fmt.Errorf("layer probe %s: %w", in.name, err)
		}
		ticks += res.Steps
		irAnalyzed += instrCount(info.Mod)
		loops += int64(len(info.Loops))
		static += prog.StaticInsts()
		fused += prog.FusedInsts()
		traceBytes += int64(buf.Len())
	}
	ms := func(d time.Duration) metric { return metric{float64(d) / 1e6, "ms"} }
	count := func(n int64) metric { return metric{float64(n), "count"} }
	return map[string]metric{
		"lang.compile_ms":       ms(t.lang),
		"lang.ir_instrs":        count(irFront),
		"analysis.analyze_ms":   ms(t.analysis),
		"analysis.ir_instrs":    count(irAnalyzed),
		"analysis.loops":        count(loops),
		"bytecode.lower_ms":     ms(t.lower),
		"bytecode.static_insts": count(static),
		"bytecode.fused_frac":   {float64(fused) / float64(max(static, 1)), "frac"},
		"bytecode.vm_ms":        ms(t.vm),
		"bytecode.ticks":        count(ticks),
		"bytecode.mticks_per_s": {float64(ticks) / 1e6 / t.vm.Seconds(), "Mticks/s"},
		"core.multirun_ms":      ms(t.multi),
		"core.fanout_ms":        ms(t.multi - t.vm),
		"core.run_ms":           ms(t.run),
		"core.trace_record_ms":  ms(t.record),
		"core.trace_bytes":      count(traceBytes),
		"core.trace_decode_ms":  ms(t.decode),
		"core.replay_ms":        ms(t.replay),
		"core.replay_engine_ms": ms(t.replay - t.decode),
		"core.replay1_ms":       ms(t.replay1),
		"core.events_load":      count(ev.loads),
		"core.events_store":     count(ev.stores),
		"core.loop_enters":      count(ev.enters),
		"core.loop_iters":       count(ev.iters),
	}, nil
}
