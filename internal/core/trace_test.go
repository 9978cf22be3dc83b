package core

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/interp"
	"loopapalooza/internal/ir"
)

// record runs src once with a trace sink and returns the trace bytes plus
// the per-config reference reports.
func record(t testing.TB, name, src string, cfgs []Config) (*analysis.ModuleInfo, []byte, []*Report) {
	t.Helper()
	info, err := AnalyzeSource(name, src)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	want := make([]*Report, len(cfgs))
	for i, cfg := range cfgs {
		opts := RunOptions{}
		if i == 0 {
			opts.Trace = &buf // record alongside the first reference run
		}
		if want[i], err = Run(info, cfg, opts); err != nil {
			t.Fatalf("%s/%s: %v", name, cfg, err)
		}
	}
	return info, buf.Bytes(), want
}

// TestTraceRoundTrip: write → read → replay must reproduce every
// configuration's report bit-identically, for every sample program, across
// the full paper grid.
func TestTraceRoundTrip(t *testing.T) {
	cfgs := PaperConfigs()
	for name, src := range fanoutSamples {
		info, trace, want := record(t, name, src, cfgs)
		if len(trace) == 0 {
			t.Fatalf("%s: empty trace", name)
		}
		// One decode, every config (the replay-side fan-out).
		got, err := ReplayTraceMulti(name, info, cfgs, RunOptions{}, bytes.NewReader(trace))
		if err != nil {
			t.Fatalf("%s: ReplayTraceMulti: %v", name, err)
		}
		for i := range cfgs {
			if err := CompareReports(want[i], got[i]); err != nil {
				t.Errorf("%s/%s: %v", name, cfgs[i], err)
			}
		}
		// Single-config replay entry point.
		one, err := ReplayTrace(name, info, cfgs[3], RunOptions{}, bytes.NewReader(trace))
		if err != nil {
			t.Fatalf("%s: ReplayTrace: %v", name, err)
		}
		if err := CompareReports(want[3], one); err != nil {
			t.Errorf("%s: single replay: %v", name, err)
		}
	}
}

// TestTraceReaderHeader covers header metadata and validation.
func TestTraceReaderHeader(t *testing.T) {
	info, trace, _ := record(t, "hdr", doallSrc, []Config{{Model: DOALL}})
	tr, err := NewTraceReader(bytes.NewReader(trace), info)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ModuleName() != "hdr" {
		t.Errorf("module name = %q, want hdr", tr.ModuleName())
	}
	// A module with a different loop count rejects the trace.
	other, err := AnalyzeSource("other", callSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTraceReader(bytes.NewReader(trace), other); err == nil ||
		!strings.Contains(err.Error(), "stale trace") {
		t.Errorf("mismatched module accepted: %v", err)
	}
}

// TestTraceTruncation: cutting the trace at any point must fail replay
// loudly — never silently produce a report from a partial stream.
func TestTraceTruncation(t *testing.T) {
	info, trace, _ := record(t, "trunc", infrequentSrc, []Config{{Model: DOALL}})
	// Every cut point, from the empty stream to one byte short.
	for cut := range len(trace) {
		_, err := ReplayTrace("trunc", info, BestPDOALL(), RunOptions{}, bytes.NewReader(trace[:cut]))
		if err == nil {
			t.Fatalf("cut at %d/%d bytes: replay succeeded on truncated trace", cut, len(trace))
		}
	}
	// Header-only truncation fails at construction.
	if _, err := NewTraceReader(bytes.NewReader(trace[:3]), info); err == nil {
		t.Error("3-byte trace accepted")
	}
}

// TestTraceCorruption covers the structured corruption checks: magic,
// version, opcodes, records the stream model cannot place, and the tick
// checksum.
func TestTraceCorruption(t *testing.T) {
	info, trace, _ := record(t, "corrupt", doallSrc, []Config{{Model: DOALL}})
	replay := func(b []byte) error {
		_, err := ReplayTrace("corrupt", info, Config{Model: DOALL}, RunOptions{}, bytes.NewReader(b))
		return err
	}
	mut := func(i int, b byte) []byte {
		c := append([]byte(nil), trace...)
		c[i] = b
		return c
	}
	if err := replay(mut(0, 'X')); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("bad magic: %v", err)
	}
	for _, v := range []byte{1, 2, 0xFF} {
		if err := replay(mut(4, v)); !errors.Is(err, ErrTraceVersion) ||
			!strings.Contains(err.Error(), "unsupported version") {
			t.Errorf("version %d: %v", v, err)
		}
	}
	// Locate the first record byte: magic(4) + version(1) + nameLen(1) +
	// name + loopCount(1) for this small module.
	body := 4 + 1 + 1 + len("corrupt") + 1
	for _, op := range []byte{0x00, 0x6F, 0x7F} { // opcodes 0, 6 and 7 are unassigned
		if err := replay(mut(body, op)); err == nil || !strings.Contains(err.Error(), "unknown opcode") {
			t.Errorf("unknown opcode %#x: %v", op, err)
		}
	}
	// The first record comes before any loop: a next record there has no
	// live loop to iterate, and a predicted load or store no slot.
	for _, c := range []struct {
		hdr  byte
		want string
	}{
		{opNext << 4, "no modelled live loop"},
		{recMem | recPredicted, "no address slot"},
		{recMem | recStore | recPredicted, "no address slot"},
	} {
		if err := replay(mut(body, c.hdr)); !errors.Is(err, errTrace) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("record %#x outside loops: %v, want a trace error containing %q", c.hdr, err, c.want)
		}
	}
	// Changing the pending-tick field of the first record, to another
	// value that needs no escape, breaks the end-record checksum and
	// nothing else.
	hdr := trace[body]
	field := byte(opTicks)
	if hdr&recMem != 0 {
		field = memTicks
	}
	n := hdr & field
	if n >= field-1 {
		t.Fatalf("first record %#x carries %d ticks; want a count below the escape", hdr, n)
	}
	if err := replay(mut(body, hdr&^field|(n^1))); err == nil ||
		!strings.Contains(err.Error(), "checksum") {
		t.Errorf("tick checksum: %v", err)
	}
}

// TestTraceWriterUnaddressableLoop: hand-built loop metas (outside the
// module's dense Seq numbering) poison the trace instead of encoding a
// bogus ordinal.
func TestTraceWriterUnaddressableLoop(t *testing.T) {
	info, err := AnalyzeSource("unaddr", doallSrc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf, info)
	tw.ExitLoop(&analysis.LoopMeta{Seq: 0}) // right ordinal, wrong identity
	if err := tw.Close(); err == nil || !strings.Contains(err.Error(), "not addressable") {
		t.Errorf("Close = %v, want unaddressable-loop error", err)
	}
}

// TestTraceWriterStickyError: the first sink failure is reported at Close
// even when later writes would have succeeded. Ticks encode no bytes of
// their own, so the stream is driven by loads and stores, enough of them
// to overflow the writer's block and hit the sink before Close.
func TestTraceWriterStickyError(t *testing.T) {
	fw := &failWriter{n: 2}
	tw := NewTraceWriter(fw, mustAnalyze(t, "sticky", doallSrc))
	for i := int64(0); i < 1<<16; i++ {
		tw.Tick(1)
		tw.Load(i << 20) // 4-byte address deltas
		tw.Store(i)
	}
	if tw.err == nil {
		t.Fatal("sink not hit mid-stream")
	}
	fw.n = 1 << 30 // later writes would succeed
	if err := tw.Close(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("Close = %v, want sticky disk full", err)
	}
}

func mustAnalyze(t *testing.T, name, src string) *analysis.ModuleInfo {
	t.Helper()
	info, err := AnalyzeSource(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// TestReplayBudgetsIgnored: replay consumes a recorded stream; the
// recording budgets don't apply (documented contract), so a tiny MaxSteps
// in the replay options must not fail it.
func TestReplayBudgetsIgnored(t *testing.T) {
	info, trace, want := record(t, "nobudget", doallSrc, []Config{BestPDOALL()})
	got, err := ReplayTrace("nobudget", info, BestPDOALL(), RunOptions{MaxSteps: 1}, bytes.NewReader(trace))
	if err != nil {
		t.Fatalf("replay with tiny budget: %v", err)
	}
	if err := CompareReports(want[0], got); err != nil {
		t.Error(err)
	}
}

// layoutSrc has one loop observing two reduction phis, one of them a
// float.
const layoutSrc = `
var a [8]int;
var g [8]float;
func main() int {
	var s int = 0;
	var f float = 0.0;
	var i int;
	for (i = 0; i < 8; i = i + 1) {
		s = s + a[i];
		f = f + g[i];
	}
	return s + int(f);
}`

// hookLog records a replayed event stream, one line per hook call, ticks
// included.
type hookLog []string

func (l *hookLog) add(format string, args ...any) { *l = append(*l, fmt.Sprintf(format, args...)) }

func (l *hookLog) Tick(n int64) { l.add("tick %d", n) }
func (l *hookLog) EnterLoop(lm *analysis.LoopMeta, sp int64, init []interp.Val) {
	l.add("enter %d sp=%d %v", lm.Seq, sp, init)
}
func (l *hookLog) IterLoop(lm *analysis.LoopMeta, sp int64, obs []interp.LCDObs) {
	l.add("iter %d sp=%d %v", lm.Seq, sp, obs)
}
func (l *hookLog) ExitLoop(lm *analysis.LoopMeta) { l.add("exit %d", lm.Seq) }
func (l *hookLog) Load(addr int64)                { l.add("load %d", addr) }
func (l *hookLog) Store(addr int64)               { l.add("store %d", addr) }

// TestTraceFormatV3Layout pins the v3 encoding byte for byte: pending
// ticks below, at and past both header escapes (ticks batched into the
// next record), payloads without kind bytes, a header-only next record
// and an explicit iter record at a moved stack pointer, predicted
// addresses that hit and miss (a fresh slot predicts 0; a slot learns its
// stride), the fallbacks past the last position and past the deepest
// modelled loop, positions resuming in the enclosing loop after exits,
// and an end record carrying ticks. The loop re-enters itself to nest, as
// a recursive function's loop does. The bytes then replay to the same
// events, with the batched ticks delivered as one.
func TestTraceFormatV3Layout(t *testing.T) {
	info := mustAnalyze(t, "v3", layoutSrc)
	if len(info.Loops) != 1 || len(info.Loops[0].Observed) != 2 {
		t.Fatalf("layoutSrc: want one loop observing two phis, got %d loops", len(info.Loops))
	}
	lm := info.Loops[0]
	obs := func(i int64, f float64, defTick int64) []interp.LCDObs {
		return []interp.LCDObs{
			{Val: interp.Val{K: ir.KInt, I: i}, DefTick: -1},
			{Val: interp.Val{K: ir.KFloat, F: f}, DefTick: defTick},
		}
	}
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf, info)
	tw.Tick(2)
	tw.Tick(3)
	tw.Store(100)
	tw.Tick(30)
	tw.Load(99)
	tw.Tick(31)
	tw.Load(99)
	tw.Tick(200)
	tw.Store(98)
	tw.Tick(14)
	tw.EnterLoop(lm, 1000, []interp.Val{{K: ir.KInt, I: 7}, {K: ir.KFloat, F: 1.5}})
	tw.Load(0)
	tw.Store(500)
	tw.Tick(15)
	tw.IterLoop(lm, 1000, obs(8, 2.5, 292)) // clock 295
	tw.Load(0)
	tw.Store(504)
	tw.IterLoop(lm, 996, obs(9, 3.5, -1))
	tw.Load(0)
	tw.Store(508)
	tw.EnterLoop(lm, 996, []interp.Val{{K: ir.KInt}, {K: ir.KFloat}})
	for range tracePositions + 1 {
		tw.Load(0)
	}
	for range traceDepths - 1 {
		tw.EnterLoop(lm, 996, nil)
	}
	tw.Load(0)
	tw.IterLoop(lm, 996, obs(1, 0.5, -1))
	for range traceDepths {
		tw.ExitLoop(lm)
	}
	tw.Load(0)
	tw.ExitLoop(lm)
	tw.Tick(20)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		// magic, version 3, name "v3", 1 loop
		"4c505472", "03", "02", "7633", "01",
		// 5 ticks from two Tick calls, store outside loops: address
		// delta +100
		"c5", "c801",
		// 30 ticks, load -1
		"9e", "01",
		// 31 ticks: the escape value plus 0, load +0
		"9f", "00", "00",
		// 200 ticks: the escape value plus 169, store -1
		"df", "a901", "01",
		// 14 ticks, enter loop 0: sp +1000, 2 values with no kind
		// bytes: int 7, float 1.5
		"1e", "00", "d00f", "02", "0e", "000000000000f83f",
		// depth 1, position 0: the fresh slot predicts 0, a hit
		"a0",
		// position 1 predicts 0, a miss: store +500
		"c0", "e807",
		// 15 ticks (escape plus 0), next: int 8 with defTick -1,
		// float 2.5 with defTick 292 (clock 295 - 3)
		"5f", "00", "10", "00", "0000000000000440", "07",
		// position 0 hits; position 1 predicts 500 + 500, a miss:
		// store +504
		"a0", "c0", "f007",
		// the stack pointer moved: an explicit iter of loop 0, sp -4,
		// 2 observations: int 9, float 3.5, both with defTick -1
		"20", "00", "07", "02", "12", "00", "0000000000000c40", "00",
		// position 0 hits; position 1 predicts 504 + 4, a hit
		"a0", "e0",
		// enter loop 0 again (depth 2): sp +0, int 0, float 0
		"10", "00", "00", "02", "00", "0000000000000000",
		// 16 loads predicted by fresh slots, then one past the last
		// position: load +0
		strings.Repeat("a0", tracePositions), "80", "00",
		// 7 more enters reach depth 9, past the deepest modelled loop
		strings.Repeat("10000000", traceDepths-1),
		// so the load there has no slot (load +0), and an iteration at
		// the previous stack pointer is an explicit iter: sp +0, int 1,
		// float 0.5
		"80", "00",
		"20", "00", "00", "02", "02", "00", "000000000000e03f", "00",
		// 8 exits back to depth 1, whose position 2 predicts 0, a hit
		strings.Repeat("3000", traceDepths), "a0",
		// exit loop 0
		"30", "00",
		// 20 ticks (escape plus 5), end: 315 ticks in total
		"4f", "05", "bb02",
	}, "")
	if got := hex.EncodeToString(buf.Bytes()); got != want {
		t.Fatalf("v3 bytes:\n got %s\nwant %s", got, want)
	}

	tr, err := NewTraceReader(bytes.NewReader(buf.Bytes()), info)
	if err != nil {
		t.Fatal(err)
	}
	var log hookLog
	if err := tr.Replay(&log); err != nil {
		t.Fatal(err)
	}
	wantLog := []string{
		"tick 5", "store 100", "tick 30", "load 99", "tick 31", "load 99", "tick 200", "store 98",
		"tick 14", "enter 0 sp=1000 [{i64 7 0} {f64 0 1.5}]",
		"load 0", "store 500",
		"tick 15", "iter 0 sp=1000 [{{i64 8 0} -1} {{f64 0 2.5} 292}]",
		"load 0", "store 504",
		"iter 0 sp=996 [{{i64 9 0} -1} {{f64 0 3.5} -1}]",
		"load 0", "store 508",
		"enter 0 sp=996 [{i64 0 0} {f64 0 0}]",
	}
	for range tracePositions + 1 {
		wantLog = append(wantLog, "load 0")
	}
	for range traceDepths - 1 {
		wantLog = append(wantLog, "enter 0 sp=996 []")
	}
	wantLog = append(wantLog, "load 0", "iter 0 sp=996 [{{i64 1 0} -1} {{f64 0 0.5} -1}]")
	for range traceDepths {
		wantLog = append(wantLog, "exit 0")
	}
	wantLog = append(wantLog, "load 0", "exit 0", "tick 20")
	if strings.Join(log, "\n") != strings.Join(wantLog, "\n") {
		t.Errorf("replayed events:\n%s\nwant:\n%s", strings.Join(log, "\n"), strings.Join(wantLog, "\n"))
	}
}

// TestTraceWriterKindMismatch: payload values carry no kind byte, so a
// value whose kind is not its observed phi's fails the trace instead of
// replaying as another value.
func TestTraceWriterKindMismatch(t *testing.T) {
	info := mustAnalyze(t, "kinds", layoutSrc)
	lm := info.Loops[0]
	tw := NewTraceWriter(io.Discard, info)
	tw.EnterLoop(lm, 0, []interp.Val{{K: ir.KInt, I: 1}, {K: ir.KInt, I: 2}}) // phi 1 is a float
	tw.Tick(1)
	if err := tw.Close(); err == nil || !strings.Contains(err.Error(), "has kind i64, its phi f64") {
		t.Errorf("Close = %v, want a kind mismatch", err)
	}
	tw = NewTraceWriter(io.Discard, info)
	tw.IterLoop(lm, 0, make([]interp.LCDObs, 3))
	if err := tw.Close(); err == nil || !strings.Contains(err.Error(), "3 payload values") {
		t.Errorf("Close = %v, want an oversized payload error", err)
	}
}

// TestTraceRecordingAllocs: the trace writer takes its block from the
// pool and returns it at Close, so recording a small program's trace
// costs a small fraction of the 64 KiB block on top of the same run
// untraced.
func TestTraceRecordingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	info := mustAnalyze(t, "allocs", doallSrc)
	perRun := func(opts RunOptions) int64 {
		const runs = 50
		if _, err := Run(info, BestHELIX(), opts); err != nil { // warm the pools
			t.Fatal(err)
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for range runs {
			if _, err := Run(info, BestHELIX(), opts); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&ms)
		return int64(ms.TotalAlloc-before) / runs
	}
	plain := perRun(RunOptions{})
	traced := perRun(RunOptions{Trace: io.Discard})
	t.Logf("per run: %d bytes untraced, %d traced", plain, traced)
	if extra := traced - plain; extra > traceBlockSize/16 {
		t.Errorf("recording a trace allocates %d bytes more per run, want <= %d", extra, traceBlockSize/16)
	}
}

// stallReader serves data, then returns (0, nil) forever.
type stallReader struct{ data []byte }

func (r *stallReader) Read(p []byte) (int, error) {
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestTraceReaderNoProgress: a reader that keeps returning (0, nil) fails
// the decode with io.ErrNoProgress instead of spinning, whether it stalls
// in the header or mid-stream.
func TestTraceReaderNoProgress(t *testing.T) {
	info, trace, _ := record(t, "stall", doallSrc, []Config{{Model: DOALL}})
	if _, err := NewTraceReader(&stallReader{}, info); !errors.Is(err, io.ErrNoProgress) {
		t.Errorf("stalled header: %v, want io.ErrNoProgress", err)
	}
	tr, err := NewTraceReader(&stallReader{data: trace[:len(trace)/2]}, info)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Replay(interp.NopHooks{}); !errors.Is(err, io.ErrNoProgress) {
		t.Errorf("stalled body: %v, want io.ErrNoProgress", err)
	}
	if err := tr.Replay(interp.NopHooks{}); err == nil || !strings.Contains(err.Error(), "already replayed") {
		t.Errorf("second Replay: %v, want already-replayed error", err)
	}
}

// nest4Src has four nested loops, all statically parallel under every
// paper configuration.
const nest4Src = `
var a [16]int;
func main() int {
	var i int;
	var j int;
	var k int;
	var l int;
	for (i = 0; i < 2; i = i + 1) {
		for (j = 0; j < 2; j = j + 1) {
			for (k = 0; k < 2; k = k + 1) {
				for (l = 0; l < 2; l = l + 1) {
					a[l] = i + j + k + l;
				}
			}
		}
	}
	return a[0];
}`

// TestReplayWildStoreMemoryBounded pins what a replayed trace can make the
// engines allocate with one store at the last flat heap cell: a page and
// a directory per live level, not a table reaching the cell. Both traces
// are a few dozen bytes; before paged shadow memory, (a) allocated
// 384 MiB and (b) 8,449 MiB.
func TestReplayWildStoreMemoryBounded(t *testing.T) {
	info := mustAnalyze(t, "nest4", nest4Src)
	loops := slices.Clone(info.Loops)
	slices.SortFunc(loops, byDepth)
	if len(loops) != 4 || loops[3].Loop.Depth != 4 {
		t.Fatalf("nest4Src: want four nested loops, got %d", len(loops))
	}
	wild := int64(interp.HeapBase) + heapFlatCap - 1
	trace := func(levels int) []byte {
		var buf bytes.Buffer
		tw := NewTraceWriter(&buf, info)
		for _, lm := range loops[:levels] {
			tw.EnterLoop(lm, interp.StackTop, nil)
		}
		tw.Store(wild)
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	replayOne := func(data []byte) error {
		_, err := ReplayTrace("nest4", info, BestHELIX(), RunOptions{}, bytes.NewReader(data))
		return err
	}
	replayGrid := func(data []byte) error {
		_, err := ReplayTraceMulti("nest4", info, PaperConfigs(), RunOptions{}, bytes.NewReader(data))
		return err
	}
	for _, tc := range []struct {
		name   string
		levels int
		replay func([]byte) error
		limit  uint64
	}{
		{"a/one-level", 1, replayOne, 1 << 20},
		{"b/four-levels", 4, replayGrid, 8 << 20},
	} {
		data := trace(tc.levels)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		err := tc.replay(data)
		runtime.ReadMemStats(&ms)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		grew := ms.TotalAlloc - before
		t.Logf("%s: a %d-byte trace allocated %.2f MiB", tc.name, len(data), float64(grew)/(1<<20))
		if grew > tc.limit {
			t.Errorf("%s: replaying a %d-byte trace allocated %d bytes, want <= %d", tc.name, len(data), grew, tc.limit)
		}
	}
}
