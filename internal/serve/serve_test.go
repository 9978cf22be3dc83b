package serve

// End-to-end coverage of the analysis service over real HTTP: round trips,
// the cache-hit fast path, budget rejections with taxonomy codes,
// positioned diagnostics for malformed programs, and graceful drain.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"loopapalooza/internal/bench"
	"loopapalooza/internal/core"
)

// okSrc is a small program whose outer loops parallelize under reduc1.
const okSrc = `
const N = 500;
var tab [N]int;
func main() int {
	var i int;
	for (i = 0; i < N; i = i + 1) { tab[i] = i * 3 % 17; }
	var sum int = 0;
	for (i = 0; i < N; i = i + 1) { sum = sum + tab[i]; }
	return sum;
}`

// slowSrc runs ~9M IR instructions (~150ms): long enough that a cache hit
// is measurably (>=10x) faster than the first run.
const slowSrc = `
func main() int {
	var i int;
	var s int = 0;
	for (i = 0; i < 1000000; i = i + 1) { s = s + i % 7; }
	return s;
}`

// badSrc does not parse.
const badSrc = "func main( int { return 0; }"

// faultSrc divides by a runtime zero.
const faultSrc = `
func main() int {
	var z int = 0;
	var i int;
	for (i = 0; i < 10; i = i + 1) { z = z + 0; }
	return 1 / z;
}`

// newTestServer builds a Server and an httptest front end around it.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// postJSON posts v and returns the status and body.
func postJSON(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func decodeAnalyze(t *testing.T, body []byte) AnalyzeResponse {
	t.Helper()
	var ar AnalyzeResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatalf("decoding analyze response: %v\n%s", err, body)
	}
	return ar
}

func decodeError(t *testing.T, body []byte) ErrorResponse {
	t.Helper()
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("decoding error response: %v\n%s", err, body)
	}
	return er
}

func TestAnalyzeRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, body := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{
		Name:   "roundtrip",
		Source: okSrc,
		Config: "reduc1-dep0-fn0 DOALL",
	})
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	ar := decodeAnalyze(t, body)
	if ar.Cached {
		t.Error("first request reported cached")
	}
	if ar.Outcome != core.OutcomeOK {
		t.Errorf("outcome %v", ar.Outcome)
	}
	r := ar.Report
	if r == nil {
		t.Fatal("nil report")
	}
	if r.Benchmark != "roundtrip" {
		t.Errorf("benchmark %q", r.Benchmark)
	}
	if r.Config.String() != "reduc1-dep0-fn0 DOALL" {
		t.Errorf("config %v", r.Config)
	}
	if r.Speedup() <= 1 {
		t.Errorf("speedup %.2f, want > 1 (both loops are DOALL under reduc1)", r.Speedup())
	}
	if len(r.Loops) == 0 {
		t.Error("no loops in report")
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var hr HealthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" {
		t.Errorf("status %q", hr.Status)
	}
}

// TestAnalyzeCacheHit is the acceptance gate: the second identical request
// must be served from the cache, at least 10x faster than the run that
// filled it.
func TestAnalyzeCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	req := AnalyzeRequest{Name: "slow", Source: slowSrc, Config: "reduc1-dep1-fn2 HELIX"}

	t0 := time.Now()
	status, body := postJSON(t, ts.URL+"/v1/analyze", req)
	missDur := time.Since(t0)
	if status != http.StatusOK {
		t.Fatalf("first request: status %d, body %s", status, body)
	}
	first := decodeAnalyze(t, body)
	if first.Cached {
		t.Error("first request reported cached")
	}

	t1 := time.Now()
	status, body = postJSON(t, ts.URL+"/v1/analyze", req)
	hitDur := time.Since(t1)
	if status != http.StatusOK {
		t.Fatalf("second request: status %d, body %s", status, body)
	}
	second := decodeAnalyze(t, body)
	if !second.Cached {
		t.Error("second identical request was not served from the cache")
	}
	if first.Report.SerialCost != second.Report.SerialCost {
		t.Errorf("cached report drifted: serial cost %d vs %d",
			first.Report.SerialCost, second.Report.SerialCost)
	}
	if hitDur*10 > missDur {
		t.Errorf("cache hit not >=10x faster: miss %v, hit %v", missDur, hitDur)
	}
	if st := s.cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache stats %+v, want 1 hit / 1 miss", st)
	}

	// A different configuration is a different content address.
	status, body = postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{
		Name: "slow", Source: slowSrc, Config: "reduc0-dep0-fn0 PDOALL",
	})
	if status != http.StatusOK {
		t.Fatalf("third request: status %d, body %s", status, body)
	}
	if decodeAnalyze(t, body).Cached {
		t.Error("different config was served from the cache")
	}
}

func TestAnalyzeBudgetExceeded(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, body := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{
		Name:    "tiny-budget",
		Source:  slowSrc,
		Config:  "reduc1-dep1-fn2 HELIX",
		Budgets: &Budgets{MaxSteps: 10_000},
	})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422; body %s", status, body)
	}
	er := decodeError(t, body)
	if er.Outcome != core.OutcomeStepLimit {
		t.Errorf("outcome %v, want step-limit", er.Outcome)
	}
	if er.ExitCode != 4 {
		t.Errorf("exit code %d, want 4", er.ExitCode)
	}
	if er.Error == "" {
		t.Error("empty error message")
	}
}

func TestAnalyzeBudgetClamped(t *testing.T) {
	// The server caps steps at 10k; a request asking for billions still
	// trips the cap.
	_, ts := newTestServer(t, Options{
		DefaultBudgets: Budgets{MaxSteps: 10_000},
		MaxBudgets:     Budgets{MaxSteps: 10_000},
	})
	status, body := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{
		Source:  slowSrc,
		Budgets: &Budgets{MaxSteps: 2_000_000_000},
	})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422; body %s", status, body)
	}
	if er := decodeError(t, body); er.Outcome != core.OutcomeStepLimit {
		t.Errorf("outcome %v, want step-limit", er.Outcome)
	}
}

func TestAnalyzeRuntimeFault(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, body := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{
		Name: "fault", Source: faultSrc,
	})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422; body %s", status, body)
	}
	er := decodeError(t, body)
	if er.Outcome != core.OutcomeRuntimeError {
		t.Errorf("outcome %v, want runtime-error", er.Outcome)
	}
	if er.ExitCode != 3 {
		t.Errorf("exit code %d, want 3", er.ExitCode)
	}
}

// syncBuffer is a race-safe log sink.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestAnalyzeMalformedSource(t *testing.T) {
	logBuf := &syncBuffer{}
	_, ts := newTestServer(t, Options{
		Log: slog.New(slog.NewJSONHandler(logBuf, nil)),
	})
	status, body := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{
		Name: "bad.lpc", Source: badSrc,
	})
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %s", status, body)
	}
	er := decodeError(t, body)
	if er.Outcome != core.OutcomeError {
		t.Errorf("outcome %v, want error", er.Outcome)
	}
	if len(er.Diagnostics) == 0 {
		t.Fatalf("no diagnostics in error body: %s", body)
	}
	d := er.Diagnostics[0]
	if d.File != "bad.lpc" || d.Line <= 0 || d.Col <= 0 || d.Message == "" {
		t.Errorf("diagnostic not positioned: %+v", d)
	}
	if d.Severity != "error" {
		t.Errorf("severity %q", d.Severity)
	}
	// The structured request log carries the positions.
	if log := logBuf.String(); !strings.Contains(log, "rejected program") ||
		!strings.Contains(log, fmt.Sprintf("bad.lpc:%d:%d", d.Line, d.Col)) {
		t.Errorf("request log missing rejected-program positions:\n%s", log)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, tt := range []struct {
		name string
		req  AnalyzeRequest
	}{
		{"empty source", AnalyzeRequest{Config: "reduc0-dep0-fn0 DOALL"}},
		{"bad config", AnalyzeRequest{Source: okSrc, Config: "reduc9 WARP"}},
		{"invalid combination", AnalyzeRequest{Source: okSrc, Config: "reduc0-dep2-fn0 DOALL"}},
	} {
		status, body := postJSON(t, ts.URL+"/v1/analyze", tt.req)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400; body %s", tt.name, status, body)
		}
	}
	// Invalid JSON body.
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid JSON: status %d, want 400", resp.StatusCode)
	}
	// Wrong method.
	resp, err = http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET analyze: status %d, want 405", resp.StatusCode)
	}
}

func TestSweepEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep endpoint runs real benchmark cells")
	}
	_, ts := newTestServer(t, Options{})
	names := []string{}
	for _, b := range bench.BySuite(bench.SuiteEEMBC)[:2] {
		names = append(names, b.Name)
	}
	status, body := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Benchmarks: names,
		Configs:    []string{"reduc0-dep0-fn0 DOALL", "reduc1-dep1-fn2 HELIX"},
	})
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("decoding sweep response: %v\n%s", err, body)
	}
	if len(sr.Cells) != 4 {
		t.Fatalf("%d cells, want 4", len(sr.Cells))
	}
	if sr.Counts[core.OutcomeOK] != 4 {
		t.Errorf("counts %v, want 4 ok; summary %q", sr.Counts, sr.Summary)
	}
	for _, c := range sr.Cells {
		if c.Speedup <= 0 {
			t.Errorf("cell %s %v: speedup %v", c.Bench, c.Config, c.Speedup)
		}
	}

	// Unknown benchmark and bad config reject with 400.
	if status, _ := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Benchmarks: []string{"999.vapor"}}); status != http.StatusBadRequest {
		t.Errorf("unknown benchmark: status %d, want 400", status)
	}
	if status, _ := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Configs: []string{"warp9"}}); status != http.StatusBadRequest {
		t.Errorf("bad config: status %d, want 400", status)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := AnalyzeRequest{Name: "m", Source: okSrc, Config: "reduc1-dep0-fn0 DOALL"}
	postJSON(t, ts.URL+"/v1/analyze", req)
	postJSON(t, ts.URL+"/v1/analyze", req) // cache hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	fanout := fmt.Sprintf("p=%d", runtime.GOMAXPROCS(0))
	for _, want := range []string{
		`lpd_requests_total{path="/v1/analyze",code="200"} 2`,
		"lpd_cache_hits_total 1",
		"lpd_cache_misses_total 1",
		`lpd_analyze_outcomes_total{outcome="ok"} 2`,
		`lpd_request_seconds_bucket{path="/v1/analyze",le="+Inf"} 2`,
		"lpd_request_seconds_count", // histogram family rendered
		"lpd_ticks_simulated_total",
		"lpd_cache_entries 1",
		fmt.Sprintf(`lpd_engine_info{engine="bytecode",fanout=%q} 1`, fanout),
		"# TYPE lpd_requests_total counter",
		"# TYPE lpd_cache_entries gauge",
		"# TYPE lpd_request_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestParallelismOption: a server pinned to a serial fan-out pool serves
// reports bit-identical to the default width and advertises its worker
// count on /metrics.
func TestParallelismOption(t *testing.T) {
	_, tsD := newTestServer(t, Options{})
	_, tsS := newTestServer(t, Options{Parallelism: 1})
	req := SweepRequest{
		Benchmarks:     []string{"181.mcf"},
		Configs:        []string{"reduc1-dep0-fn0 DOALL", "reduc1-dep1-fn2 HELIX", "reduc1-dep2-fn2 PDOALL", "reduc0-dep0-fn0 DOALL"},
		IncludeReports: true,
	}
	stD, bodyD := postJSON(t, tsD.URL+"/v1/sweep", req)
	stS, bodyS := postJSON(t, tsS.URL+"/v1/sweep", req)
	if stD != http.StatusOK || stS != http.StatusOK {
		t.Fatalf("status %d / %d, want 200", stD, stS)
	}
	var respD, respS SweepResponse
	if err := json.Unmarshal(bodyD, &respD); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bodyS, &respS); err != nil {
		t.Fatal(err)
	}
	if len(respD.Cells) != len(respS.Cells) {
		t.Fatalf("cell count %d vs %d", len(respD.Cells), len(respS.Cells))
	}
	for i := range respD.Cells {
		if err := core.CompareReports(respD.Cells[i].Report, respS.Cells[i].Report); err != nil {
			t.Errorf("cell %d: pool widths serve diverging reports: %v", i, err)
		}
	}
	resp, err := http.Get(tsS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if want := `lpd_engine_info{engine="bytecode",fanout="p=1"} 1`; !strings.Contains(string(body), want) {
		t.Errorf("metrics missing %q", want)
	}
}

// TestGracefulShutdownDrains checks Shutdown waits for an in-flight
// analysis to finish and the client still receives its 200.
func TestGracefulShutdownDrains(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()
	url := "http://" + l.Addr().String()

	// Use the 2M-iteration program (~300ms) so the request is reliably
	// in flight when Shutdown begins.
	bigSrc := strings.Replace(slowSrc, "1000000", "2000000", 1)
	type result struct {
		status int
		body   []byte
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		b, _ := json.Marshal(AnalyzeRequest{Name: "drain", Source: bigSrc})
		resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(b))
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		resc <- result{status: resp.StatusCode, body: body}
	}()

	// Wait until the run actually holds a limiter slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.lim.InUse() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	// Generous guard: under -race with the whole suite saturating the
	// machine, the ~300ms in-flight run can stretch well past its
	// unloaded time; the contract under test is only that Shutdown
	// waits for it.
	shutCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Shutdown(shutCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	s.Close()

	res := <-resc
	if res.err != nil {
		t.Fatalf("in-flight request failed across shutdown: %v", res.err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("in-flight request: status %d, body %s", res.status, res.body)
	}
	ar := decodeAnalyze(t, res.body)
	if ar.Report == nil || ar.Report.SerialCost == 0 {
		t.Error("drained request returned an empty report")
	}
	if err := <-serveDone; err != nil {
		t.Errorf("serve returned %v after shutdown", err)
	}
	// New connections are refused after drain.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("server still accepting connections after shutdown")
	}
}
