package serve

import (
	"runtime"
	"testing"

	"loopapalooza/internal/bench"
	"loopapalooza/internal/core"
)

// allocated returns the bytes f allocates.
func allocated(f func()) int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	f()
	runtime.ReadMemStats(&ms)
	return int64(ms.TotalAlloc - before)
}

// TestTraceTierAllocs pins what each step of a trace's life allocates
// per trace byte, over the 57 suite kernels under BestHELIX:
//   - a cold analyze fill, warmed by one fill before it, allocates at
//     most 1.1x its trace bytes beyond the same fill on a server without
//     trace tiers: one copy of each block the writer flushed, and the
//     tier's entry, never a join;
//   - TraceStore.Put allocates at most 0.1x, since it writes the frames
//     straight from the blocks;
//   - TraceStore.Get allocates at most 1.1x: one buffer of each file's
//     size and a small read window;
//   - Scrub, which keeps no payload, allocates at most 1.1x as well.
func TestTraceTierAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	if testing.Short() {
		t.Skip("runs every suite kernel four times")
	}
	tiered, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tiered.Close()
	plain, err := New(Options{TraceCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	budgets := tiered.effectiveBudgets(nil)
	var keys []string
	var extra, traced int64
	for _, b := range bench.All() {
		fill := func(s *Server) {
			if _, err := s.analyzeFill(b.Name, b.Source, core.BestHELIX(), budgets); err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
		}
		tkey := TraceKey(b.Name, b.Source, budgets)
		fill(plain)
		untraced := allocated(func() { fill(plain) })
		fill(tiered)
		tiered.traces.Drop(tkey)
		extra += allocated(func() { fill(tiered) }) - untraced
		_, trace, ok := tiered.traces.Get(tkey)
		if !ok {
			t.Fatalf("%s: cold fill stored no trace", b.Name)
		}
		for _, blk := range trace {
			traced += int64(len(blk))
		}
		keys = append(keys, tkey)
	}
	perByte := func(what string, n int64, bound float64) {
		t.Helper()
		r := float64(n) / float64(traced)
		t.Logf("%s: %d bytes allocated for %d trace bytes (%.3fx)", what, n, traced, r)
		if r > bound {
			t.Errorf("%s allocates %.3fx the trace bytes, want <= %.2fx", what, r, bound)
		}
	}
	perByte("cold fill beyond an untraced run", extra, 1.1)

	store, err := NewTraceStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	put := func() {
		for _, k := range keys {
			_, trace, _ := tiered.traces.Get(k)
			if err := store.Put(k, trace); err != nil {
				t.Fatal(err)
			}
		}
	}
	put() // the first pass creates the files; the measured one replaces them
	perByte("TraceStore.Put", allocated(put), 0.1)
	perByte("TraceStore.Get", allocated(func() {
		for _, k := range keys {
			if trace, err := store.Get(k); err != nil || trace == nil {
				t.Fatalf("Get(%s): %v", k[:12], err)
			}
		}
	}), 1.1)
	perByte("Scrub", allocated(func() {
		if res := store.Scrub(nil); res.Files != len(keys) || res.Corrupt != 0 {
			t.Fatalf("scrub = %+v, want %d healthy files", res, len(keys))
		}
	}), 1.1)
}
