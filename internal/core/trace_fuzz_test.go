package core

import (
	"bytes"
	"errors"
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

// FuzzTraceDecode feeds arbitrary bytes to the trace decoder, which reads
// traces from disk and from peers. Decoding against one of the sample
// modules must end in success or in a trace error (ErrTraceVersion or
// the "core: trace" family), never a panic, and must allocate no more
// than traceDecodeAllocCap plus the bytes present. The seeds are v2
// traces of the fanoutSamples programs and truncations of them. Replay
// goes into a counting hook, not into engines: engine-side memory under
// hostile addresses is a separate bound (ROADMAP item 4(b)).
func FuzzTraceDecode(f *testing.F) {
	names := make([]string, 0, len(fanoutSamples))
	for name := range fanoutSamples {
		names = append(names, name)
	}
	slices.Sort(names)
	infos := make([]*analysis.ModuleInfo, len(names))
	for i, name := range names {
		info, trace, _ := record(f, name, fanoutSamples[name], []Config{BestHELIX()})
		infos[i] = info
		f.Add(uint8(i), trace)
		for _, cut := range []int{len(trace) - 1, len(trace) / 2, 9} {
			f.Add(uint8(i), trace[:cut])
		}
	}
	// A header claiming the longest legal module name, backed by 1 byte.
	f.Add(uint8(0), []byte("LPTr\x02\x80\x80\x40x"))
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
