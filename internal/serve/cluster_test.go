package serve

// Coverage of the cluster surface: the async job API over real HTTP, a
// remote worker fleet speaking the mounted /v1/cluster/* transport, the
// liveness/readiness split, and cluster metrics on /metrics.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"loopapalooza/internal/bench"
	"loopapalooza/internal/cluster"
	"loopapalooza/internal/core"
)

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestJobAPIWithRemoteFleet(t *testing.T) {
	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{Lease: 5 * time.Second, Seed: 1})
	defer coord.Close()
	_, ts := newTestServer(t, Options{Cluster: coord})

	// A remote fleet speaks the mounted transport.
	client := cluster.NewClient(ts.URL, nil)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() { cancel(); wg.Wait() }()
	for i := 0; i < 2; i++ {
		w, err := cluster.NewWorker(cluster.WorkerOptions{
			ID: fmt.Sprintf("w%d", i), Coordinator: client, Poll: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() { defer wg.Done(); w.Run(ctx) }()
	}

	bs := bench.BySuite(bench.SuiteEEMBC)[:2]
	status, body := postJSON(t, ts.URL+"/v1/jobs", JobRequest{
		Tenant:     "acme",
		Benchmarks: []string{bs[0].Name, bs[1].Name},
		Configs:    []string{"reduc1-dep2-fn2 PDOALL", "reduc1-dep1-fn2 HELIX"},
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d body %s", status, body)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Cells != 4 || !strings.HasPrefix(sub.StatusURL, "/v1/jobs/") {
		t.Fatalf("submit response %+v", sub)
	}

	deadline := time.Now().Add(30 * time.Second)
	var st cluster.JobStatus
	for {
		if code := getJSON(t, ts.URL+sub.StatusURL, &st); code != http.StatusOK {
			t.Fatalf("status poll: %d", code)
		}
		if st.State == cluster.JobDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.Counts[core.OutcomeOK] != 4 {
		t.Fatalf("job counts %v, want 4 ok", st.Counts)
	}
	if !strings.HasPrefix(st.Summary, "4/4 cells ok") {
		t.Fatalf("summary %q", st.Summary)
	}

	// Fleet observability.
	var workers []cluster.WorkerInfo
	if code := getJSON(t, ts.URL+"/v1/cluster/workers", &workers); code != http.StatusOK || len(workers) != 2 {
		t.Fatalf("workers: code %d list %+v", code, workers)
	}

	// Cluster series are on /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := readAll(t, resp)
	for _, series := range []string{
		"lpd_cluster_queue_depth", "lpd_cluster_jobs_done_total 1",
		`lpd_cluster_breaker_state{worker="w0"} 0`,
		`lpd_cluster_committed_cells_total{outcome="ok"} 4`,
	} {
		if !strings.Contains(metrics, series) {
			t.Errorf("metrics missing %q", series)
		}
	}

	if err := coord.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestJobAPIRejections(t *testing.T) {
	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{MaxQueuedJobs: 1, Seed: 1})
	defer coord.Close()
	_, ts := newTestServer(t, Options{Cluster: coord})

	if status, body := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Benchmarks: []string{"no-such-kernel"}}); status != http.StatusBadRequest {
		t.Fatalf("unknown benchmark: status %d body %s", status, body)
	}
	if status, body := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Configs: []string{"not a config"}}); status != http.StatusBadRequest {
		t.Fatalf("bad config: status %d body %s", status, body)
	}
	if status := getJSON(t, ts.URL+"/v1/jobs/job-999999", nil); status != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", status)
	}

	// Admission control surfaces as 429.
	if status, body := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Tenant: "t"}); status != http.StatusAccepted {
		t.Fatalf("first submit: status %d body %s", status, body)
	}
	if status, _ := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Tenant: "t"}); status != http.StatusTooManyRequests {
		t.Fatalf("over-cap submit: status %d, want 429", status)
	}
}

// TestSelectionRejectsRepeats: a sweep or job that names a benchmark or
// a configuration twice is a 400 naming the repeat, and nothing runs.
// Configurations compare after parsing, so two spellings of one
// configuration are a repeat. Without the check a small body expands to
// len(benchmarks) × len(configs) cells before anything runs.
func TestSelectionRejectsRepeats(t *testing.T) {
	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{Seed: 1})
	defer coord.Close()
	_, ts := newTestServer(t, Options{Cluster: coord})

	for _, c := range []struct {
		name    string
		benches []string
		cfgs    []string
		want    string
	}{
		{"benchmark", []string{"470.lbm", "181.mcf", "470.lbm"}, []string{"reduc0-dep0-fn0 DOALL"}, "470.lbm"},
		{"configuration", []string{"470.lbm"}, []string{"reduc1-dep1-fn2 HELIX", "helix:REDUC1-dep1-fn2"}, "reduc1-dep1-fn2 HELIX"},
		{"default-kernels", nil, []string{"reduc0-dep0-fn0 DOALL", "reduc0-dep0-fn0 DOALL"}, "reduc0-dep0-fn0 DOALL"},
	} {
		for path, body := range map[string]any{
			"/v1/sweep": SweepRequest{Benchmarks: c.benches, Configs: c.cfgs},
			"/v1/jobs":  JobRequest{Benchmarks: c.benches, Configs: c.cfgs},
		} {
			status, resp := postJSON(t, ts.URL+path, body)
			if status != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400; body %s", path, c.name, status, resp)
				continue
			}
			if er := decodeError(t, resp); !strings.Contains(er.Error, c.want) || !strings.Contains(er.Error, "twice") {
				t.Errorf("%s %s: error %q does not name the repeated %q", path, c.name, er.Error, c.want)
			}
		}
	}
	if st := coord.Stats(); st.ActiveJobs+st.DoneJobs != 0 || st.QueueDepth != 0 {
		t.Errorf("rejected selections reached the coordinator: %+v", st)
	}
}

func TestReadyzSplitFromHealthz(t *testing.T) {
	failing := fmt.Errorf("breaker quarantine")
	var gate error
	s, ts := newTestServer(t, Options{
		ReadyChecks: []ReadyCheck{func() error { return gate }},
	})

	var ready ReadyzResponse
	if code := getJSON(t, ts.URL+"/readyz", &ready); code != http.StatusOK || ready.Status != "ready" {
		t.Fatalf("fresh server readyz: %d %+v", code, ready)
	}

	// A failing ready check flips readiness but not liveness.
	gate = failing
	if code := getJSON(t, ts.URL+"/readyz", &ready); code != http.StatusServiceUnavailable {
		t.Fatalf("failing check readyz: %d", code)
	}
	if len(ready.Reasons) != 1 || ready.Reasons[0] != "breaker quarantine" {
		t.Fatalf("reasons %v", ready.Reasons)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz during quarantine: %d, want 200", code)
	}
	gate = nil

	// Drain flips readiness too (checked via the handler because
	// Shutdown also closes the listener).
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after shutdown: %d, want 503", rec.Code)
	}
	if body := rec.Body.String(); !strings.Contains(body, "draining") {
		t.Fatalf("readyz body %q missing drain reason", body)
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz after shutdown: %d, want 200 (liveness)", rec.Code)
	}
}

func TestClusterSurfaceAbsentWithoutCoordinator(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	if status, _ := postJSON(t, ts.URL+"/v1/jobs", JobRequest{}); status != http.StatusNotFound {
		t.Fatalf("jobs without cluster: status %d, want 404", status)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if m := readAll(t, resp); strings.Contains(m, "lpd_cluster_") {
		t.Fatal("cluster series exported without a coordinator")
	}
}

// TestCoordinatorDrainReleasesInFlight exercises the shutdown-timeout
// path end to end: a worker holding a task is canceled mid-execution,
// its cells come back canceled, and the coordinator refunds them.
func TestCoordinatorDrainReleasesInFlight(t *testing.T) {
	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{Lease: 5 * time.Second, Seed: 1})
	defer coord.Close()
	_, ts := newTestServer(t, Options{Cluster: coord})

	claimed := make(chan struct{})
	var once sync.Once
	runCtx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	w, err := cluster.NewWorker(cluster.WorkerOptions{
		ID: "drainee", Coordinator: cluster.NewClient(ts.URL, nil), Poll: 5 * time.Millisecond,
		Hooks: cluster.Hooks{BeforeExecute: func(ctx context.Context, task *cluster.Task) error {
			once.Do(func() { close(claimed) })
			<-ctx.Done()
			return nil
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); w.Run(runCtx) }()

	status, body := postJSON(t, ts.URL+"/v1/jobs", JobRequest{
		Benchmarks: []string{bench.BySuite(bench.SuiteEEMBC)[0].Name},
		Configs:    []string{"reduc1-dep2-fn2 PDOALL"},
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", status, body)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	<-claimed
	cancelRun() // the shutdown-timeout expiring on the worker
	<-done

	deadline := time.Now().Add(5 * time.Second)
	for {
		var st cluster.JobStatus
		getJSON(t, ts.URL+sub.StatusURL, &st)
		if st.Cells[0].State == cluster.CellQueued && st.Cells[0].Attempts == 0 {
			break // refunded, nothing lost, budget uncharged
		}
		if time.Now().After(deadline) {
			t.Fatalf("canceled cell never refunded: %+v", st.Cells[0])
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := coord.Stats().RefundedCells; got != 1 {
		t.Fatalf("refunded %d, want 1", got)
	}
	if err := coord.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
