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
// version, opcodes, loop ordinals, and the tick checksum.
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
	for _, v := range []byte{1, 0xFF} {
		if err := replay(mut(4, v)); !errors.Is(err, ErrTraceVersion) ||
			!strings.Contains(err.Error(), "unsupported version") {
			t.Errorf("version %d: %v", v, err)
		}
	}
	// Locate the first record byte: magic(4) + version(1) + nameLen(1) +
	// name + loopCount(1) for this small module.
	body := 4 + 1 + 1 + len("corrupt") + 1
	for _, op := range []byte{0x00, 0x5F, 0x7F} { // opcodes 0, 5 and 7 are unassigned
		if err := replay(mut(body, op)); err == nil || !strings.Contains(err.Error(), "unknown opcode") {
			t.Errorf("unknown opcode %#x: %v", op, err)
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

// v2Src has one loop observing two reduction phis, one of them a float.
const v2Src = `
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

// TestTraceFormatV2Layout pins the v2 encoding byte for byte: pending
// ticks below, at and past both header escapes (ticks batched into the
// next record), a negative stack-pointer delta, both defTick forms, a
// float payload, and an end record carrying ticks. The bytes then replay
// to the same events, with the batched ticks delivered as one.
func TestTraceFormatV2Layout(t *testing.T) {
	info := mustAnalyze(t, "v2", v2Src)
	if len(info.Loops) != 1 || len(info.Loops[0].Observed) < 2 {
		t.Fatalf("v2Src: want one loop observing two phis, got %d loops", len(info.Loops))
	}
	lm := info.Loops[0]
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf, info)
	tw.Tick(2)
	tw.Tick(3)
	tw.Store(100)
	tw.Tick(62)
	tw.Load(99)
	tw.Tick(63)
	tw.Load(99)
	tw.Tick(200)
	tw.Store(98)
	tw.Tick(14)
	tw.EnterLoop(lm, 1000, []interp.Val{{K: ir.KInt, I: 7}, {K: ir.KFloat, F: 1.5}})
	tw.Tick(15)
	tw.IterLoop(lm, 996, []interp.LCDObs{
		{Val: interp.Val{K: ir.KInt, I: 8}, DefTick: -1},
		{Val: interp.Val{K: ir.KFloat, F: 2.5}, DefTick: 356}, // clock 359
	})
	tw.ExitLoop(lm)
	tw.Tick(20)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		// magic, version 2, name "v2", 1 loop
		"4c505472", "02", "02", "7632", "01",
		// 5 ticks from two Tick calls, store: address delta +100
		"c5", "c801",
		// 62 ticks, load -1
		"be", "01",
		// 63 ticks: the escape value plus 0, load +0
		"bf", "00", "00",
		// 200 ticks: the escape value plus 137, store -1
		"ff", "8901", "01",
		// 14 ticks, enter loop 0: sp +1000, 2 values: int 7, float 1.5
		"1e", "00", "d00f", "02", "02", "0e", "03", "000000000000f83f",
		// 15 ticks (escape plus 0), iter loop 0: sp -4, 2 observations:
		// int 8 with defTick -1, float 2.5 with defTick 356 (clock 359 - 3)
		"2f", "00", "00", "07", "02", "02", "10", "00", "03", "0000000000000440", "07",
		// exit loop 0
		"30", "00",
		// 20 ticks (escape plus 5), end: 379 ticks in total
		"4f", "05", "fb02",
	}, "")
	if got := hex.EncodeToString(buf.Bytes()); got != want {
		t.Fatalf("v2 bytes:\n got %s\nwant %s", got, want)
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
		"tick 5", "store 100", "tick 62", "load 99", "tick 63", "load 99", "tick 200", "store 98",
		"tick 14", "enter 0 sp=1000 [{i64 7 0} {f64 0 1.5}]",
		"tick 15", "iter 0 sp=996 [{{i64 8 0} -1} {{f64 0 2.5} 356}]",
		"exit 0", "tick 20",
	}
	if strings.Join(log, "\n") != strings.Join(wantLog, "\n") {
		t.Errorf("replayed events:\n%s\nwant:\n%s", strings.Join(log, "\n"), strings.Join(wantLog, "\n"))
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
	slices.SortFunc(loops, func(a, b *analysis.LoopMeta) int { return a.Loop.Depth - b.Loop.Depth })
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
