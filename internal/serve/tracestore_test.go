package serve

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"loopapalooza/internal/core"
	"loopapalooza/internal/wal"
)

// TestTraceStoreRoundTrip: bytes in, identical verified bytes out, and
// a missing key is a plain miss.
func TestTraceStoreRoundTrip(t *testing.T) {
	ts, err := NewTraceStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	trace := []byte("trace-bytes-go-here")
	if err := ts.Put("k1", trace); err != nil {
		t.Fatal(err)
	}
	got, err := ts.Get("k1")
	if err != nil || !bytes.Equal(got, trace) {
		t.Fatalf("Get = %q, %v; want the stored trace", got, err)
	}
	if got, err := ts.Get("absent"); got != nil || err != nil {
		t.Fatalf("missing key = %q, %v; want nil, nil", got, err)
	}
	st := ts.Stats()
	if st.Puts != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats after round trip: %+v", st)
	}
}

// TestTraceStoreScrubQuarantines: a scrub pass detects a bit flip in a
// stored trace, moves the file into quarantine/, and subsequent reads
// miss cleanly instead of returning damaged bytes.
func TestTraceStoreScrubQuarantines(t *testing.T) {
	dir := t.TempDir()
	ts, err := NewTraceStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Put("good", bytes.Repeat([]byte("g"), 512)); err != nil {
		t.Fatal(err)
	}
	if err := ts.Put("bad", bytes.Repeat([]byte("b"), 512)); err != nil {
		t.Fatal(err)
	}
	flipByte(t, filepath.Join(dir, "bad"+traceExt))

	res := ts.Scrub(nil)
	if res.Files != 2 || res.Corrupt != 1 {
		t.Fatalf("scrub = %+v, want 2 files, 1 corrupt", res)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, "bad"+traceExt)); err != nil {
		t.Fatalf("corrupt trace not quarantined: %v", err)
	}
	if got, err := ts.Get("bad"); got != nil || err != nil {
		t.Fatalf("quarantined key = %q, %v; want a clean miss", got, err)
	}
	if got, err := ts.Get("good"); err != nil || len(got) != 512 {
		t.Fatalf("healthy trace damaged by scrub: %q, %v", got, err)
	}
	st := ts.Stats()
	if st.ScrubRuns != 1 || st.ScrubCorrupt != 1 || st.Quarantined != 1 {
		t.Fatalf("stats after scrub: %+v", st)
	}
}

// TestTraceStoreGetQuarantinesCorrupt: corruption found on the read
// path (not just by the scrubber) also quarantines the file.
func TestTraceStoreGetQuarantinesCorrupt(t *testing.T) {
	dir := t.TempDir()
	ts, err := NewTraceStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Put("k", bytes.Repeat([]byte("x"), 256)); err != nil {
		t.Fatal(err)
	}
	flipByte(t, filepath.Join(dir, "k"+traceExt))
	if got, err := ts.Get("k"); got != nil || err == nil {
		t.Fatalf("corrupt read = %q, %v; want nil + corruption error", got, err)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, "k"+traceExt)); err != nil {
		t.Fatalf("corrupt trace not quarantined on read: %v", err)
	}
}

// TestAnalyzeDiskTierSurvivesRestart: a trace recorded by one server is
// replayed by a fresh server over the same directory — the whole point
// of the durable tier — and the replayed report matches a live run.
func TestAnalyzeDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	opts := Options{TraceDir: dir, ScrubInterval: -1}

	s1, front1 := newTestServer(t, opts)
	if status, body := postJSON(t, front1.URL+"/v1/analyze",
		AnalyzeRequest{Name: "durable", Source: okSrc, Config: "reduc1-dep2-fn2 PDOALL"}); status != http.StatusOK {
		t.Fatalf("recording run: %d\n%s", status, body)
	}
	if st := s1.store.Stats(); st.Puts != 1 {
		t.Fatalf("store after first run: %+v, want 1 put", st)
	}

	// "Restart": a new server, empty memory tiers, same disk.
	s2, front2 := newTestServer(t, opts)
	status, body := postJSON(t, front2.URL+"/v1/analyze",
		AnalyzeRequest{Name: "durable", Source: okSrc, Config: "reduc1-dep1-fn2 HELIX"})
	if status != http.StatusOK {
		t.Fatalf("post-restart analyze: %d\n%s", status, body)
	}
	if st := s2.store.Stats(); st.Hits != 1 {
		t.Fatalf("store after restart: %+v, want a disk hit", st)
	}
	if st := s2.harness.Stats(); st.Executions != 0 {
		t.Fatalf("restarted server re-interpreted despite a stored trace")
	}
	want, err := core.RunSource("durable", okSrc, core.BestHELIX(), core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ar := decodeAnalyze(t, body); !reflect.DeepEqual(want, ar.Report) {
		t.Errorf("disk-replayed report differs from live run:\nlive:   %+v\nreplay: %+v", want, ar.Report)
	}
	// The disk hit was promoted into the new server's memory tier.
	if st := s2.traces.Stats(); st.Entries != 1 {
		t.Errorf("disk hit not promoted to memory tier: %+v", st)
	}
}

// TestAnalyzeStartupScrubRepairsByReExecution: the acceptance path —
// a stored trace rots on disk, a restarted server's startup scrub
// quarantines it, and the next demand recomputes the cell live and
// re-records a healthy trace.
func TestAnalyzeStartupScrubRepairsByReExecution(t *testing.T) {
	dir := t.TempDir()
	opts := Options{TraceDir: dir, ScrubInterval: -1}

	s1, front1 := newTestServer(t, opts)
	req := AnalyzeRequest{Name: "rotting", Source: okSrc}
	if status, body := postJSON(t, front1.URL+"/v1/analyze", req); status != http.StatusOK {
		t.Fatalf("recording run: %d\n%s", status, body)
	}
	tkey := TraceKey("rotting", okSrc, s1.effectiveBudgets(nil))
	flipByte(t, filepath.Join(dir, tkey+traceExt))

	s2, front2 := newTestServer(t, opts)
	if st := s2.store.Stats(); st.ScrubRuns != 1 || st.ScrubCorrupt != 1 || st.Quarantined != 1 {
		t.Fatalf("startup scrub missed the rot: %+v", st)
	}
	status, body := postJSON(t, front2.URL+"/v1/analyze", req)
	if status != http.StatusOK {
		t.Fatalf("analyze after quarantine: %d\n%s", status, body)
	}
	if ar := decodeAnalyze(t, body); ar.Report == nil || ar.Report.Speedup() <= 0 {
		t.Fatalf("recomputed report unusable: %+v", ar.Report)
	}
	// The live recomputation re-recorded the trace: healthy bytes back
	// on disk, corpse still in quarantine for inspection.
	if err := wal.VerifyChunked(filepath.Join(dir, tkey+traceExt)); err != nil {
		t.Fatalf("repaired trace file not rewritten: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, tkey+traceExt)); err != nil {
		t.Fatalf("quarantined corpse missing: %v", err)
	}
}

// TestAnalyzeDiskTierQuarantinesUnreplayable: a file whose checksums
// hold but whose contents no replay can decode (recorded by another
// build, say) is quarantined on demand and the request served live.
func TestAnalyzeDiskTierQuarantinesUnreplayable(t *testing.T) {
	dir := t.TempDir()
	s, front := newTestServer(t, Options{TraceDir: dir, ScrubInterval: -1})
	tkey := TraceKey("liar", okSrc, s.effectiveBudgets(nil))
	if err := s.store.Put(tkey, []byte("checksummed but not a trace")); err != nil {
		t.Fatal(err)
	}

	status, body := postJSON(t, front.URL+"/v1/analyze",
		AnalyzeRequest{Name: "liar", Source: okSrc})
	if status != http.StatusOK {
		t.Fatalf("fallback after unreplayable disk trace: %d\n%s", status, body)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, tkey+traceExt)); err != nil {
		t.Fatalf("unreplayable trace not quarantined: %v", err)
	}
	if st := s.store.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats after unreplayable trace: %+v", st)
	}
	// The live run healed the slot.
	if err := wal.VerifyChunked(filepath.Join(dir, tkey+traceExt)); err != nil {
		t.Fatalf("slot not re-recorded after fallback: %v", err)
	}
}

// TestAnalyzeMemoryPoisonQuarantinesDiskCopy: when the memory tier's
// copy fails replay, the matching disk file is quarantined too — the
// disk copy is the same bytes, so serving it after a restart would
// repeat the failure.
func TestAnalyzeMemoryPoisonQuarantinesDiskCopy(t *testing.T) {
	dir := t.TempDir()
	s, front := newTestServer(t, Options{TraceDir: dir, ScrubInterval: -1})
	tkey := TraceKey("poison", okSrc, s.effectiveBudgets(nil))
	info, err := core.AnalyzeSource("poison", okSrc)
	if err != nil {
		t.Fatal(err)
	}
	s.traces.Put(tkey, info, []byte("not a trace"))
	if err := s.store.Put(tkey, []byte("not a trace")); err != nil {
		t.Fatal(err)
	}

	status, body := postJSON(t, front.URL+"/v1/analyze",
		AnalyzeRequest{Name: "poison", Source: okSrc})
	if status != http.StatusOK {
		t.Fatalf("fallback after poisoned tiers: %d\n%s", status, body)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, tkey+traceExt)); err != nil {
		t.Fatalf("disk copy of poisoned trace not quarantined: %v", err)
	}
}

// TestAnalyzeStaleTraceVersionReRecords: after an upgrade, every stored
// trace is in the previous format version. Such a file is a cache miss,
// not corruption: the request is served live, nothing is quarantined,
// and the live run overwrites the file with a trace this build replays.
// The stale traces are a current one with version byte 1 and a real
// version-2 trace of the same program (testdata/oksrc-v2.trace).
func TestAnalyzeStaleTraceVersionReRecords(t *testing.T) {
	info, err := core.AnalyzeSource("stale", okSrc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := core.Run(info, core.BestHELIX(), core.RunOptions{Trace: &buf}); err != nil {
		t.Fatal(err)
	}
	v1 := buf.Bytes()
	v1[4] = 1 // the version byte, after the 4-byte magic
	v2, err := os.ReadFile(filepath.Join("testdata", "oksrc-v2.trace"))
	if err != nil {
		t.Fatal(err)
	}
	if len(v2) < 5 || v2[4] != 2 {
		t.Fatalf("testdata/oksrc-v2.trace is not a version-2 trace")
	}
	for _, stale := range []struct {
		name  string
		trace []byte
	}{{"v1", v1}, {"v2", v2}} {
		t.Run(stale.name, func(t *testing.T) {
			dir := t.TempDir()
			s, front := newTestServer(t, Options{TraceDir: dir, ScrubInterval: -1})
			tkey := TraceKey("stale", okSrc, s.effectiveBudgets(nil))
			if err := s.store.Put(tkey, stale.trace); err != nil {
				t.Fatal(err)
			}
			before := s.store.Stats()

			status, body := postJSON(t, front.URL+"/v1/analyze",
				AnalyzeRequest{Name: "stale", Source: okSrc, Config: "reduc1-dep1-fn2 HELIX"})
			if status != http.StatusOK {
				t.Fatalf("analyze over a stale trace: %d\n%s", status, body)
			}
			if ents, err := os.ReadDir(filepath.Join(dir, quarantineDir)); err != nil || len(ents) != 0 {
				t.Fatalf("quarantine/ = %v (%v), want empty", ents, err)
			}
			after := s.store.Stats()
			if after.Quarantined != before.Quarantined {
				t.Fatalf("quarantine counter %d -> %d, want unchanged", before.Quarantined, after.Quarantined)
			}
			if after.Puts != before.Puts+1 {
				t.Fatalf("store puts %d -> %d, want the live run to re-record the trace", before.Puts, after.Puts)
			}
			trace, err := s.store.Get(tkey)
			if err != nil || trace == nil {
				t.Fatalf("re-recorded trace: %v", err)
			}
			rep, err := core.ReplayTrace("stale", info, core.BestHELIX(), core.RunOptions{}, bytes.NewReader(trace))
			if err != nil {
				t.Fatalf("re-recorded trace does not replay: %v", err)
			}
			if ar := decodeAnalyze(t, body); !reflect.DeepEqual(rep, ar.Report) {
				t.Errorf("replay of the re-recorded trace differs from the live response:\nlive:   %+v\nreplay: %+v", ar.Report, rep)
			}
		})
	}
}

// flipByte corrupts one payload byte of a chunked file in place.
func flipByte(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
