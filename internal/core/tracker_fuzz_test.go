package core

import "testing"

// FuzzTrackerDifferential feeds arbitrary (depth, region, addr, op)
// streams to the shadow-vs-map tracker differential driver: any
// divergence between the paged shadow memory and the map oracle — a wrong
// load answer or fact, a stale-generation leak (recycled pages included),
// a misplaced page, a dropped overflow record — fails immediately. The
// seed corpus (testdata/fuzz plus the f.Add entries below) starts the
// search at the region-cap, page-recycling and generation-churn
// boundaries; `make fuzz-smoke` runs this coverage-guided for a few
// seconds per CI pass.
func FuzzTrackerDifferential(f *testing.F) {
	// Store/load at the regLow clamp edge, an iteration boundary, then
	// exit, re-enter, and reload: the stale record must be invisible.
	f.Add([]byte("\x00\x00\x00\x00\x02\x00\x01\x00\x04\x00\x01\x00" +
		"\x06\x01\x05\x02\x01\x00\x00\x00\x00\x00\x00\x00\x04\x00\x01\x00"))
	// Four nesting levels storing and loading across overflow families
	// (heap past the flat cap, the global gap, below the stack), with
	// partial unwinding in between.
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00" +
		"\x02\x00\x08\x07\x02\x03\x02\x09\x02\x02\x0b\x05" +
		"\x04\x00\x08\x07\x04\x03\x02\x09\x04\x02\x0b\x05" +
		"\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x04\x01\x08\x07"))
	// Iteration boundaries (op 6) between memory spans (op 7), so loads
	// of a span find the writes of the span before as facts, with the
	// cactus-stack filter on (an even last byte of the enter and iter
	// ops turns it on).
	f.Add([]byte("\x00\x00\x00\x00\x06\x05\x0f\x04\x07\x02\x09\x02" +
		"\x06\x01\x03\x06\x07\x00\x0c\x08"))
	// Store at the last cell of heap page 0, exit, release the pages (an
	// exit with no level active), re-enter, store at the page's first
	// cell — which takes the released page back from the pool, old stamp
	// and all — then reload the last cell, which must read as absent, and
	// start an iteration.
	f.Add([]byte("\x00\x00\x00\x00\x02\x00\x05\x00\x01\x00\x00\x00\x01\x00\x00\x00" +
		"\x00\x00\x00\x00\x02\x00\x04\x00\x04\x00\x05\x00\x06\x01\x05\x02"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		// Bound the stream so a pathological input stays unit-test cheap.
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runTrackerDiff(t, ops)
	})
}
