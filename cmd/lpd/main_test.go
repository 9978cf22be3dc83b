package main

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"loopapalooza/internal/bench"
	"loopapalooza/internal/cluster"
	"loopapalooza/internal/core"
	"loopapalooza/internal/serve"
	"loopapalooza/internal/wal"
)

func TestRunRejectsBadRoleWiring(t *testing.T) {
	cases := []struct {
		name string
		cfg  config
	}{
		{"unknown role", config{role: "manager"}},
		{"worker without peers", config{role: "worker"}},
		{"coordinator with peers", config{role: "coordinator", peers: []string{"http://x:1"}}},
		{"standalone with peers", config{role: "standalone", peers: []string{"http://x:1"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if rc := run(tc.cfg); rc != 2 {
				t.Fatalf("run() = %d, want usage error 2", rc)
			}
		})
	}
}

// TestWALDumpGolden: -wal-dump renders a journal deterministically —
// header line with generation/snapshot/record/torn counts, then every
// record payload verbatim in append order.
func TestWALDumpGolden(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{
		`{"k":"admit","job":"job-000001"}`,
		`{"k":"lease","task":"task-00000001","worker":"w0"}`,
		`{"k":"commit","job":"job-000001","bench":"181.mcf"}`,
	} {
		if err := l.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := dumpWAL(&sb, dir); err != nil {
		t.Fatal(err)
	}
	golden := `wal: generation 0, snapshot 0 bytes, 3 records, 0 torn tail bytes
     0 {"k":"admit","job":"job-000001"}
     1 {"k":"lease","task":"task-00000001","worker":"w0"}
     2 {"k":"commit","job":"job-000001","bench":"181.mcf"}
`
	if sb.String() != golden {
		t.Fatalf("wal dump diverged from golden:\n--- got ---\n%s--- want ---\n%s", sb.String(), golden)
	}
}

// TestWALDumpReportsTornTail: a torn tail shows up in the header
// instead of failing the dump (the whole point of offline inspection).
func TestWALDumpReportsTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte(`{"k":"admit"}`)); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Crash()
	tearJournal(t, dir)

	var sb strings.Builder
	if err := dumpWAL(&sb, dir); err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(sb.String(), "\n")
	if want := "wal: generation 0, snapshot 0 bytes, 1 records, 3 torn tail bytes"; header != want {
		t.Fatalf("torn dump header = %q, want %q", header, want)
	}
}

// tearJournal appends a 3-byte partial header to the gen-0 journal —
// the debris of a crash mid-write.
func tearJournal(t *testing.T, dir string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, "journal-00000000.wal"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
}

func TestWALDumpRejectsMissingDir(t *testing.T) {
	if rc := run(config{walDump: t.TempDir() + "/nonexistent"}); rc != 1 {
		t.Fatalf("run(-wal-dump missing) = %d, want 1", rc)
	}
}

// TestJobCellsHonourBudgets: under -max-steps 1000, a job cell run by a
// worker wired the way lpd wires it ends step-limit, as a /v1/sweep of
// the same cell does; a report depends only on the benchmark, the
// configuration and the process budgets, whichever surface serves it.
func TestJobCellsHonourBudgets(t *testing.T) {
	cfg := config{maxSteps: 1000, poll: 5 * time.Millisecond}
	log := slog.New(slog.NewTextHandler(io.Discard, nil))

	s, err := serve.New(cfg.serveOptions(log))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
		strings.NewReader(`{"benchmarks":["181.mcf"],"configs":["reduc1-dep1-fn2 HELIX"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sweep serve.SweepResponse
	if err := json.NewDecoder(resp.Body).Decode(&sweep); err != nil {
		t.Fatal(err)
	}
	if len(sweep.Cells) != 1 || sweep.Cells[0].Outcome != core.OutcomeStepLimit {
		t.Fatalf("/v1/sweep cells = %+v, want one step-limit cell", sweep.Cells)
	}

	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{Lease: 5 * time.Second})
	defer coord.Close()
	w, err := cfg.newWorker("budgeted", coord, log)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()
	defer func() { cancel(); <-done }()
	id, err := coord.Submit("t", []*bench.Benchmark{bench.ByName("181.mcf")}, []core.Config{core.BestHELIX()}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}
	st, err := coord.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Cells) != 1 || st.Cells[0].Outcome != core.OutcomeStepLimit {
		t.Fatalf("job cells = %+v, want one step-limit cell, as /v1/sweep gives", st.Cells)
	}
}
