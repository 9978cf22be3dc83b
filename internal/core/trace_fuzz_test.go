package core

import (
	"bytes"
	"errors"
	"maps"
	"runtime"
	"slices"
	"testing"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/interp"
)

// traceDecodeAllocCap bounds what decoding any input may allocate beyond
// the input's own length: the pooled input block when the pool is empty,
// the reader, and the payload scratch slices. Claimed lengths (module
// name, payload counts) must not move it.
const traceDecodeAllocCap = 256 << 10

// eventCount is a non-allocating hook that counts what a replay delivers.
type eventCount struct{ ticks, events int64 }

func (c *eventCount) Tick(n int64)                                        { c.ticks += n }
func (c *eventCount) EnterLoop(*analysis.LoopMeta, int64, []interp.Val)   { c.events++ }
func (c *eventCount) IterLoop(*analysis.LoopMeta, int64, []interp.LCDObs) { c.events++ }
func (c *eventCount) ExitLoop(*analysis.LoopMeta)                         { c.events++ }
func (c *eventCount) Load(int64)                                          { c.events++ }
func (c *eventCount) Store(int64)                                         { c.events++ }

// deepNestSrc nests ten loops, two deeper than the trace model keeps.
const deepNestSrc = `
var a [4]int;
func main() int {
	var i0 int; var i1 int; var i2 int; var i3 int; var i4 int;
	var i5 int; var i6 int; var i7 int; var i8 int; var i9 int;
	for (i0 = 0; i0 < 2; i0 = i0 + 1) {
	for (i1 = 0; i1 < 2; i1 = i1 + 1) {
	for (i2 = 0; i2 < 2; i2 = i2 + 1) {
	for (i3 = 0; i3 < 2; i3 = i3 + 1) {
	for (i4 = 0; i4 < 2; i4 = i4 + 1) {
	for (i5 = 0; i5 < 2; i5 = i5 + 1) {
	for (i6 = 0; i6 < 2; i6 = i6 + 1) {
	for (i7 = 0; i7 < 2; i7 = i7 + 1) {
	for (i8 = 0; i8 < 2; i8 = i8 + 1) {
	for (i9 = 0; i9 < 2; i9 = i9 + 1) {
		a[i9 + i8] = a[i7] + i0;
	}}}}}}}}}}
	return a[0];
}`

// byDepth orders loop metas by nesting depth.
func byDepth(a, b *analysis.LoopMeta) int { return a.Loop.Depth - b.Loop.Depth }

// FuzzTraceDecode feeds arbitrary bytes to the trace decoder, which reads
// traces from disk and from peers. Decoding against one of the sample
// modules must end in success or in a trace error (ErrTraceVersion or
// the "core: trace" family), never a panic, and must allocate no more
// than traceDecodeAllocCap plus the bytes present. The seeds are v3
// traces of the fanoutSamples programs and of deepNestSrc, whose loops
// nest past the deepest loop the stream model keeps, and truncations of
// them. Replay goes into a counting hook, not into engines: engine-side
// memory under hostile addresses is a separate bound (ROADMAP item 4(b)).
func FuzzTraceDecode(f *testing.F) {
	srcs := maps.Clone(fanoutSamples)
	srcs["deepnest"] = deepNestSrc
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	slices.Sort(names)
	infos := make([]*analysis.ModuleInfo, len(names))
	for i, name := range names {
		info, trace, _ := record(f, name, srcs[name], []Config{BestHELIX()})
		infos[i] = info
		if name == "deepnest" && slices.MaxFunc(info.Loops, byDepth).Loop.Depth <= traceDepths {
			f.Fatalf("deepNestSrc does not nest past %d loops", traceDepths)
		}
		f.Add(uint8(i), trace)
		for _, cut := range []int{len(trace) - 1, len(trace) / 2, 9} {
			f.Add(uint8(i), trace[:cut])
		}
	}
	// A header claiming the longest legal module name, backed by 1 byte.
	f.Add(uint8(0), []byte("LPTr\x03\x80\x80\x40x"))
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		info := infos[int(which)%len(infos)]
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		var c eventCount
		tr, err := NewTraceReader(bytes.NewReader(data), info)
		if err == nil {
			err = tr.Replay(&c)
		}
		runtime.ReadMemStats(&ms)
		if grew := ms.TotalAlloc - before; grew > traceDecodeAllocCap+uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil && !errors.Is(err, errTrace) && !errors.Is(err, ErrTraceVersion) {
			t.Fatalf("untyped decode error: %v", err)
		}
	})
}
