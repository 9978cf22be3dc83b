// Package serve turns the limit-study pipeline into a long-lived analysis
// service: an HTTP server exposing compile+run analysis (POST /v1/analyze),
// benchmark sweeps over the resident harness (POST /v1/sweep), liveness
// (GET /healthz), readiness (GET /readyz), and Prometheus metrics
// (GET /metrics). With a cluster.Coordinator attached it also serves the
// async job API (POST /v1/jobs, GET /v1/jobs/{id}) and the worker-facing
// lease endpoints (POST /v1/cluster/*).
//
// Every analyze request flows through a content-addressed cache (SHA-256
// of name+source+config+budgets, LRU-bounded, singleflight-deduplicated),
// so identical submissions from many clients share one compile+run. Cache
// fills and sweeps pass a server-level concurrency limiter, and every run
// carries the resource budgets (step, heap, wall-clock) clamped to the
// server's caps. Shutdown drains in-flight requests before returning.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"loopapalooza/internal/bench"
	"loopapalooza/internal/cluster"
	"loopapalooza/internal/core"
	"loopapalooza/internal/diag"
	"loopapalooza/internal/metrics"
	"loopapalooza/internal/wal"
)

// Budgets are the per-request resource limits, JSON-addressable so clients
// can tighten (never exceed) the server's caps.
type Budgets struct {
	// MaxSteps bounds the dynamic instruction count (0 = server default).
	MaxSteps int64 `json:"maxSteps,omitempty"`
	// MaxHeapCells bounds the simulated heap in 64-bit cells, and the
	// global segment and the stack to as many cells each (0 = server
	// default).
	MaxHeapCells int64 `json:"maxHeapCells,omitempty"`
	// TimeoutMs bounds the run's wall-clock time in milliseconds (0 =
	// server default).
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
}

// Options configures a Server.
type Options struct {
	// DefaultBudgets apply when a request leaves a budget zero.
	DefaultBudgets Budgets
	// MaxBudgets cap what a request may ask for (zero field = uncapped).
	MaxBudgets Budgets
	// MaxConcurrent bounds simultaneous cache fills and sweeps
	// (0 = GOMAXPROCS).
	MaxConcurrent int
	// CacheEntries bounds the result cache (0 = DefaultCacheEntries).
	CacheEntries int
	// TraceCacheBytes bounds the trace tier — recorded event streams that
	// serve novel configurations of already-seen programs by replay
	// instead of re-interpretation — charging each entry its trace bytes
	// plus an estimate of its analysis's heap (0 = DefaultTraceCacheBytes,
	// negative disables the tier).
	TraceCacheBytes int64
	// TraceDir roots the durable trace tier: checksummed .lptrace files
	// that survive restarts, scrubbed for corruption at startup and
	// every ScrubInterval ("" disables the disk tier).
	TraceDir string
	// ScrubInterval is the period of the trace-store scrubber
	// (0 = DefaultScrubInterval, negative = startup scrub only).
	ScrubInterval time.Duration
	// MaxSourceBytes bounds the request body (0 = 1 MiB).
	MaxSourceBytes int64
	// DefaultConfig is applied when a request omits the configuration
	// ("" = "reduc1-dep1-fn2 HELIX", the best realistic HELIX of Fig. 4).
	DefaultConfig string
	// Parallelism bounds the fan-out worker pool of every sweep this
	// server performs (0 = share GOMAXPROCS among the runs in flight in
	// the process, 1 = serial). Reports are bit-identical at every width.
	// The widest width a run can get (GOMAXPROCS at 0) is exposed as the
	// lpd_engine_info "fanout" label.
	Parallelism int
	// Harness is the sweep substrate; nil creates one wired to the
	// server's default budgets and limiter width.
	Harness *bench.Harness
	// Cluster mounts the async job API (POST /v1/jobs, GET
	// /v1/jobs/{id}) and the worker-facing lease endpoints (POST
	// /v1/cluster/*) on this coordinator. Nil serves no cluster surface.
	// A coordinator whose journal failed (Coordinator.JournalErr) marks
	// the server NOT-READY until restart.
	Cluster *cluster.Coordinator
	// ReadyChecks gate GET /readyz: any check returning an error marks
	// the process NOT-READY with that reason (e.g. a worker role reports
	// its breaker quarantine). Liveness (GET /healthz) is unaffected.
	ReadyChecks []ReadyCheck
	// Log receives structured request logs (nil = discard).
	Log *slog.Logger
}

// ReadyCheck reports a reason the process should not receive traffic
// (nil = ready).
type ReadyCheck func() error

// Server is the analysis service.
type Server struct {
	opts    Options
	cfg0    core.Config // parsed DefaultConfig
	cache   *Cache
	traces  *TraceCache // nil when the trace tier is disabled
	store   *TraceStore // nil when the durable trace tier is disabled
	lim     *Limiter
	harness *bench.Harness
	log     *slog.Logger
	mux     *http.ServeMux
	reg     *metrics.Registry
	start   time.Time

	baseCtx  context.Context // outlives requests; canceled by Close
	cancel   context.CancelFunc
	httpSrv  *http.Server
	draining atomic.Bool // set when Shutdown begins; flips /readyz

	readyMu     sync.RWMutex
	readyChecks []ReadyCheck

	// Metrics.
	mRequests   *metrics.Counter
	mLatency    *metrics.Histogram
	mOutcomes   *metrics.Counter
	mTicks      *metrics.Counter
	mSweepCells *metrics.Counter
}

// New builds a Server from opts.
func New(opts Options) (*Server, error) {
	if opts.DefaultConfig == "" {
		opts.DefaultConfig = "reduc1-dep1-fn2 HELIX"
	}
	cfg0, err := core.ParseConfig(opts.DefaultConfig)
	if err != nil {
		return nil, fmt.Errorf("serve: default config: %w", err)
	}
	if opts.MaxSourceBytes <= 0 {
		opts.MaxSourceBytes = 1 << 20
	}
	log := opts.Log
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	lim := NewLimiter(opts.MaxConcurrent)
	harness := opts.Harness
	if harness == nil {
		harness = bench.NewHarnessWith(bench.HarnessOptions{
			Run: core.RunOptions{
				MaxSteps:     opts.DefaultBudgets.MaxSteps,
				MaxHeapCells: opts.DefaultBudgets.MaxHeapCells,
				Timeout:      time.Duration(opts.DefaultBudgets.TimeoutMs) * time.Millisecond,
				Parallelism:  opts.Parallelism,
			},
			Workers: lim.Cap(),
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	var traces *TraceCache
	if opts.TraceCacheBytes >= 0 {
		traces = NewTraceCache(opts.TraceCacheBytes)
	}
	var store *TraceStore
	if opts.TraceDir != "" {
		store, err = NewTraceStore(opts.TraceDir)
		if err != nil {
			cancel()
			return nil, err
		}
		// Startup scrub: quarantine whatever rotted while we were down,
		// before the first request can read it.
		store.Scrub(log)
	}
	s := &Server{
		opts:    opts,
		cfg0:    cfg0,
		cache:   NewCache(opts.CacheEntries),
		traces:  traces,
		store:   store,
		lim:     lim,
		harness: harness,
		log:     log,
		mux:     http.NewServeMux(),
		reg:     metrics.NewRegistry(),
		start:   time.Now(),
		baseCtx: ctx,
		cancel:  cancel,
	}
	s.readyChecks = append(s.readyChecks, opts.ReadyChecks...)
	if opts.Cluster != nil {
		// A coordinator whose journal failed refuses every
		// acknowledgement until restart: route no traffic to it.
		s.readyChecks = append(s.readyChecks, opts.Cluster.JournalErr)
	}
	s.registerMetrics()
	s.routes()
	if store != nil && opts.ScrubInterval >= 0 {
		interval := opts.ScrubInterval
		if interval == 0 {
			interval = DefaultScrubInterval
		}
		go s.scrubLoop(interval)
	}
	// Built here, not in Serve, so Shutdown from another goroutine never
	// races with a lazy assignment.
	s.httpSrv = &http.Server{Handler: s.mux}
	return s, nil
}

func (s *Server) registerMetrics() {
	s.mRequests = s.reg.NewCounter("lpd_requests_total",
		"HTTP requests by path and status code.", "path", "code")
	s.mLatency = s.reg.NewHistogram("lpd_request_seconds",
		"Request latency in seconds by path.", metrics.DefaultLatencyBuckets, "path")
	s.mOutcomes = s.reg.NewCounter("lpd_analyze_outcomes_total",
		"Analyze results by taxonomy outcome.", "outcome")
	s.mTicks = s.reg.NewCounter("lpd_ticks_simulated_total",
		"Serial IR instructions simulated by completed analyze runs.")
	s.mSweepCells = s.reg.NewCounter("lpd_sweep_cells_total",
		"Sweep cells by taxonomy outcome.", "outcome")
	s.reg.NewGauge("lpd_engine_info",
		"Execution engine and widest fan-out worker count of this server; at width 0 the runs in flight share it (value is always 1).",
		"engine", "fanout").
		Set(1, "bytecode", fmt.Sprintf("p=%d", core.ResolveParallelism(s.opts.Parallelism)))
	s.reg.NewCounterFunc("lpd_cache_hits_total",
		"Analyze requests served from a stored cache entry.",
		func() float64 { return float64(s.cache.Stats().Hits) })
	s.reg.NewCounterFunc("lpd_cache_misses_total",
		"Analyze requests that ran their own compile+run.",
		func() float64 { return float64(s.cache.Stats().Misses) })
	s.reg.NewCounterFunc("lpd_cache_coalesced_total",
		"Analyze requests that waited on another request's in-flight run.",
		func() float64 { return float64(s.cache.Stats().Coalesced) })
	s.reg.NewCounterFunc("lpd_cache_evictions_total",
		"Cache entries dropped by the LRU bound.",
		func() float64 { return float64(s.cache.Stats().Evictions) })
	s.reg.NewGaugeFunc("lpd_cache_entries",
		"Entries currently stored in the result cache.",
		func() float64 { return float64(s.cache.Stats().Entries) })
	s.reg.NewGaugeFunc("lpd_inflight_runs",
		"Concurrency-limiter slots currently held.",
		func() float64 { return float64(s.lim.InUse()) })
	s.reg.NewGaugeFunc("lpd_concurrency_limit",
		"Concurrency-limiter capacity.",
		func() float64 { return float64(s.lim.Cap()) })
	s.reg.NewGaugeFunc("lpd_harness_cells",
		"Sweep cells recorded by the resident harness.",
		func() float64 { return float64(s.harness.CellStats().Total) })
	s.reg.NewCounterFunc("lpd_harness_executions_total",
		"Interpreter executions performed by the resident harness.",
		func() float64 { return float64(s.harness.Stats().Executions) })
	s.reg.NewCounterFunc("lpd_harness_executions_saved_total",
		"Executions avoided by sharing one run across a benchmark's sweep configurations.",
		func() float64 { return float64(s.harness.Stats().Saved) })
	if s.opts.Cluster != nil {
		s.opts.Cluster.RegisterMetrics(s.reg)
	}
	if s.traces != nil {
		s.reg.NewCounterFunc("lpd_trace_cache_hits_total",
			"Analyze fills served by replaying a cached event trace.",
			func() float64 { return float64(s.traces.Stats().Hits) })
		s.reg.NewCounterFunc("lpd_trace_cache_misses_total",
			"Trace-tier lookups that fell through to a live run.",
			func() float64 { return float64(s.traces.Stats().Misses) })
		s.reg.NewCounterFunc("lpd_trace_cache_evictions_total",
			"Trace entries dropped by the byte budget.",
			func() float64 { return float64(s.traces.Stats().Evictions) })
		s.reg.NewGaugeFunc("lpd_trace_cache_bytes",
			"Bytes charged to the trace tier: stored event traces plus the estimated heap of the analyses they pin.",
			func() float64 { return float64(s.traces.Stats().Bytes) })
		s.reg.NewGaugeFunc("lpd_trace_cache_entries",
			"Event traces currently stored.",
			func() float64 { return float64(s.traces.Stats().Entries) })
	}
	if s.store != nil {
		s.reg.NewCounterFunc("lpd_trace_store_hits_total",
			"Disk-tier reads that returned a verified trace.",
			func() float64 { return float64(s.store.Stats().Hits) })
		s.reg.NewCounterFunc("lpd_trace_store_misses_total",
			"Disk-tier reads with no stored (or no readable) trace.",
			func() float64 { return float64(s.store.Stats().Misses) })
		s.reg.NewCounterFunc("lpd_trace_store_puts_total",
			"Traces written to the disk tier.",
			func() float64 { return float64(s.store.Stats().Puts) })
		s.reg.NewCounterFunc("lpd_scrub_runs_total",
			"Trace-store scrubber passes (startup and periodic).",
			func() float64 { return float64(s.store.Stats().ScrubRuns) })
		s.reg.NewCounterFunc("lpd_scrub_files_total",
			"Stored traces verified by scrubber passes.",
			func() float64 { return float64(s.store.Stats().ScrubFiles) })
		s.reg.NewCounterFunc("lpd_scrub_corrupt_total",
			"Stored traces that failed checksum verification.",
			func() float64 { return float64(s.store.Stats().ScrubCorrupt) })
		s.reg.NewCounterFunc("lpd_scrub_quarantined_total",
			"Trace files moved to quarantine (scrub, read, or replay failures).",
			func() float64 { return float64(s.store.Stats().Quarantined) })
	}
}

func (s *Server) routes() {
	s.mux.Handle("POST /v1/analyze", s.instrument("/v1/analyze", s.handleAnalyze))
	s.mux.Handle("POST /v1/sweep", s.instrument("/v1/sweep", s.handleSweep))
	s.mux.Handle("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.Handle("GET /readyz", s.instrument("/readyz", s.handleReadyz))
	s.mux.Handle("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	if s.opts.Cluster != nil {
		s.mux.Handle("POST /v1/jobs", s.instrument("/v1/jobs", s.handleJobSubmit))
		s.mux.Handle("GET /v1/jobs/{id}", s.instrument("/v1/jobs/{id}", s.handleJobStatus))
		s.mux.Handle("GET /v1/cluster/workers", s.instrument("/v1/cluster/workers", s.handleClusterWorkers))
		// The worker-facing lease endpoints (claim/heartbeat/commit/
		// release) come as one subtree from the coordinator.
		s.mux.Handle("POST /v1/cluster/", s.instrument("/v1/cluster/", s.opts.Cluster.Handler().ServeHTTP))
	}
}

// Handler returns the service's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe serves on addr until Shutdown or a listener error.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Serve serves on l until Shutdown or a listener error. It returns nil
// after a clean Shutdown.
func (s *Server) Serve(l net.Listener) error {
	err := s.httpSrv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown gracefully drains the server: /readyz flips NOT-READY, the
// coordinator (when present) refuses new submissions and claims, then
// the listener stops accepting and in-flight requests (and their runs)
// complete, up to ctx. Call Close afterwards to cancel any stragglers.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.opts.Cluster != nil {
		s.opts.Cluster.Drain()
	}
	if s.httpSrv == nil {
		return nil
	}
	return s.httpSrv.Shutdown(ctx)
}

// Close cancels the server's base context, aborting any still-running
// analyses (their cells classify as canceled and are not cached).
func (s *Server) Close() { s.cancel() }

// scrubLoop re-verifies the durable trace tier every interval until the
// server closes, quarantining files whose checksums no longer hold.
func (s *Server) scrubLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			if res := s.store.Scrub(s.log); res.Corrupt > 0 {
				s.log.Warn("trace scrub pass", "files", res.Files, "corrupt", res.Corrupt)
			}
		}
	}
}

// statusRecorder captures the status code a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with panic recovery, metrics, and the
// structured request log.
func (s *Server) instrument(path string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				s.log.Error("handler panic", "path", path, "panic", fmt.Sprint(p),
					"stack", string(debug.Stack()))
				if rec.status == http.StatusOK {
					writeJSON(rec, http.StatusInternalServerError, ErrorResponse{
						Error:    fmt.Sprintf("internal error: %v", p),
						Outcome:  core.OutcomePanic,
						ExitCode: core.OutcomePanic.ExitCode(),
					})
				}
			}
			dur := time.Since(start)
			s.mRequests.Inc(path, fmt.Sprint(rec.status))
			s.mLatency.Observe(dur.Seconds(), path)
			if path != "/metrics" && path != "/healthz" && path != "/readyz" {
				s.log.Info("request", "method", r.Method, "path", path,
					"status", rec.status, "durMs", dur.Milliseconds())
			}
		}()
		h(rec, r)
	})
}

// decodeJSON decodes a request body bounded by maxBytes into v.
func decodeJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) error {
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes)).Decode(v)
}

// jsonBuffer is a response buffer with an indenting encoder bound to it.
// The encoder keeps the buffer it indents into across Encode calls, so a
// pooled jsonBuffer writes a warm response without growing either one.
type jsonBuffer struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// jsonBuffers pools writeJSON's buffers; ones that grew past
// maxPooledJSON are dropped, so a large sweep response does not stay
// resident.
var jsonBuffers = sync.Pool{New: func() any {
	jb := &jsonBuffer{}
	jb.enc = json.NewEncoder(&jb.buf)
	jb.enc.SetIndent("", "  ")
	return jb
}}

const maxPooledJSON = 1 << 20

// writeJSON writes v, indented and newline-terminated, with the given
// status. A value that fails to encode leaves the body empty.
func writeJSON(w http.ResponseWriter, status int, v any) {
	jb := jsonBuffers.Get().(*jsonBuffer)
	jb.buf.Reset()
	err := jb.enc.Encode(v)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err == nil {
		_, _ = w.Write(jb.buf.Bytes())
	}
	if jb.buf.Cap() <= maxPooledJSON {
		jsonBuffers.Put(jb)
	}
}

// AnalyzeRequest is the POST /v1/analyze body.
type AnalyzeRequest struct {
	// Name labels the program (diagnostics, report); "" = "<request>".
	Name string `json:"name,omitempty"`
	// Source is the LPC program text.
	Source string `json:"source"`
	// Config is the paper configuration string, e.g. "reduc1-dep1-fn2
	// HELIX" ("" = the server default).
	Config string `json:"config,omitempty"`
	// Budgets tighten the server's per-run resource limits.
	Budgets *Budgets `json:"budgets,omitempty"`
}

// AnalyzeResponse is the POST /v1/analyze success body.
type AnalyzeResponse struct {
	// Report is the completed limit-study report.
	Report *core.Report `json:"report"`
	// Cached reports whether the response was served without running a
	// new compile+run (stored hit or coalesced with an in-flight run).
	Cached bool `json:"cached"`
	// Outcome is "ok" on this path.
	Outcome core.Outcome `json:"outcome"`
	// ElapsedMs is the server-side handling time.
	ElapsedMs int64 `json:"elapsedMs"`
}

// DiagPos is one positioned diagnostic of a rejected program.
type DiagPos struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Severity string `json:"severity"`
	Message  string `json:"message"`
}

func (d DiagPos) String() string {
	return fmt.Sprintf("%s:%d:%d: %s", d.File, d.Line, d.Col, d.Message)
}

// ErrorResponse is the JSON error body of every non-2xx response.
type ErrorResponse struct {
	// Error is the rendered error message.
	Error string `json:"error"`
	// Outcome classifies the failure into the run taxonomy.
	Outcome core.Outcome `json:"outcome"`
	// ExitCode is the lpa exit code the same failure would produce.
	ExitCode int `json:"exitCode"`
	// Diagnostics carry the positioned compile errors, when any.
	Diagnostics []DiagPos `json:"diagnostics,omitempty"`
}

// diagnosticsOf extracts positioned diagnostics from a compile error.
func diagnosticsOf(err error) []DiagPos {
	var out []DiagPos
	add := func(d *diag.Diagnostic) {
		out = append(out, DiagPos{
			File: d.File, Line: d.Pos.Line, Col: d.Pos.Col,
			Severity: d.Sev.String(), Message: d.Msg,
		})
	}
	var l diag.List
	var d *diag.Diagnostic
	switch {
	case errors.As(err, &l):
		for _, d := range l {
			add(d)
		}
	case errors.As(err, &d):
		add(d)
	}
	return out
}

// statusFor maps a run error to the HTTP status: positioned compile errors
// are the client's fault (400), budget trips and guest faults are
// unprocessable programs (422), cancellation means the server is going
// away (503), anything else — ICEs, recovered panics — is ours (500).
func statusFor(err error) int {
	switch o := core.Classify(err); o {
	case core.OutcomeOK:
		return http.StatusOK
	case core.OutcomeStepLimit, core.OutcomeMemLimit, core.OutcomeTimeout,
		core.OutcomeRuntimeError:
		return http.StatusUnprocessableEntity
	case core.OutcomeCanceled:
		return http.StatusServiceUnavailable
	default:
		if len(diagnosticsOf(err)) > 0 {
			return http.StatusBadRequest
		}
		return http.StatusInternalServerError
	}
}

// effectiveBudgets resolves request budgets against the server defaults
// and caps.
func (s *Server) effectiveBudgets(req *Budgets) Budgets {
	b := s.opts.DefaultBudgets
	if req != nil {
		if req.MaxSteps > 0 {
			b.MaxSteps = req.MaxSteps
		}
		if req.MaxHeapCells > 0 {
			b.MaxHeapCells = req.MaxHeapCells
		}
		if req.TimeoutMs > 0 {
			b.TimeoutMs = req.TimeoutMs
		}
	}
	clamp := func(v, max int64) int64 {
		if max > 0 && (v <= 0 || v > max) {
			return max
		}
		return v
	}
	b.MaxSteps = clamp(b.MaxSteps, s.opts.MaxBudgets.MaxSteps)
	b.MaxHeapCells = clamp(b.MaxHeapCells, s.opts.MaxBudgets.MaxHeapCells)
	b.TimeoutMs = clamp(b.TimeoutMs, s.opts.MaxBudgets.TimeoutMs)
	return b
}

// runOptions converts resolved budgets into core run options bound to the
// server's lifetime (not the request's: a coalesced run must complete for
// its other waiters even if one client disconnects).
func (s *Server) runOptions(b Budgets) core.RunOptions {
	return core.RunOptions{
		MaxSteps:     b.MaxSteps,
		MaxHeapCells: b.MaxHeapCells,
		Timeout:      time.Duration(b.TimeoutMs) * time.Millisecond,
		Ctx:          s.baseCtx,
		Parallelism:  s.opts.Parallelism,
	}
}

// badRequest writes a 400 with an OutcomeError body.
func (s *Server) badRequest(w http.ResponseWriter, format string, args ...any) {
	writeJSON(w, http.StatusBadRequest, ErrorResponse{
		Error:    fmt.Sprintf(format, args...),
		Outcome:  core.OutcomeError,
		ExitCode: core.OutcomeError.ExitCode(),
	})
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req AnalyzeRequest
	if err := decodeJSON(w, r, s.opts.MaxSourceBytes, &req); err != nil {
		s.badRequest(w, "decoding request: %v", err)
		return
	}
	if req.Source == "" {
		s.badRequest(w, "empty source")
		return
	}
	name := req.Name
	if name == "" {
		name = "<request>"
	}
	cfg := s.cfg0
	if req.Config != "" {
		parsed, err := core.ParseConfig(req.Config)
		if err != nil {
			s.badRequest(w, "%v", err)
			return
		}
		cfg = parsed
	}
	budgets := s.effectiveBudgets(req.Budgets)
	key := Key(name, req.Source, cfg, budgets)

	entry, shared, err := s.cache.Do(r.Context(), key, func() (*core.Report, error) {
		if err := s.lim.Acquire(s.baseCtx); err != nil {
			return nil, fmt.Errorf("serve: acquiring run slot: %w", core.ErrCanceled)
		}
		defer s.lim.Release()
		return s.analyzeFill(name, req.Source, cfg, budgets)
	})
	if err != nil {
		// The client went away while waiting on someone else's run.
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{
			Error:    err.Error(),
			Outcome:  core.OutcomeCanceled,
			ExitCode: core.OutcomeCanceled.ExitCode(),
		})
		return
	}

	s.mOutcomes.Inc(entry.Outcome.String())
	if entry.Err != nil {
		diags := diagnosticsOf(entry.Err)
		if len(diags) > 0 {
			// The structured log carries the positions so rejected
			// programs are attributable without re-parsing bodies.
			positions := make([]string, len(diags))
			for i, d := range diags {
				positions[i] = d.String()
			}
			s.log.Info("rejected program", "name", name, "key", key[:12],
				"outcome", entry.Outcome.String(), "diagnostics", positions)
		}
		writeJSON(w, statusFor(entry.Err), ErrorResponse{
			Error:       entry.Err.Error(),
			Outcome:     entry.Outcome,
			ExitCode:    entry.Outcome.ExitCode(),
			Diagnostics: diags,
		})
		return
	}
	if !shared {
		s.mTicks.Add(float64(entry.Report.SerialCost))
	}
	writeJSON(w, http.StatusOK, AnalyzeResponse{
		Report:    entry.Report,
		Cached:    shared,
		Outcome:   core.OutcomeOK,
		ElapsedMs: time.Since(start).Milliseconds(),
	})
}

// analyzeFill is the cache-miss path of one analyze request: replay a
// cached trace of the same (name, source, budgets) when a trace tier has
// one — memory first, then the durable store — otherwise run live,
// recording a trace for the next configuration of this program. Budgets
// are enforced on the live run; a replayed trace was recorded under the
// same budgets (they are part of the trace key).
//
// Both tiers self-heal: a trace that fails to replay is useless for
// every future configuration, so the memory tier drops it and the disk
// tier quarantines the backing file, and the fill falls through to a
// live run that re-records it. A trace in an older format version is
// stale rather than corrupt: it is dropped without quarantine, and the
// live run's re-recording overwrites its file.
func (s *Server) analyzeFill(name, source string, cfg core.Config, budgets Budgets) (*core.Report, error) {
	if s.traces == nil && s.store == nil {
		return core.RunSource(name, source, cfg, s.runOptions(budgets))
	}
	tkey := TraceKey(name, source, budgets)
	if s.traces != nil {
		if info, trace, ok := s.traces.Get(tkey); ok {
			rep, err := core.ReplayTrace(name, info, cfg, core.RunOptions{}, wal.NewBlockReader(trace))
			if err == nil {
				return rep, nil
			}
			s.traces.Drop(tkey)
			if s.store != nil && !errors.Is(err, core.ErrTraceVersion) {
				// The disk copy is the same bytes (or worse): quarantine
				// it rather than serve the poison again after a restart.
				s.store.Quarantine(tkey)
			}
			s.log.Warn("dropping unreplayable trace", "name", name, "key", tkey[:12], "err", err)
		}
	}
	if s.store != nil {
		if trace, err := s.store.Get(tkey); err != nil {
			s.log.Warn("quarantined corrupt trace file", "name", name, "key", tkey[:12], "err", err)
		} else if trace != nil {
			// The disk tier stores only the event stream; the module
			// analysis replays need is recomputed from source (cheap
			// next to interpretation, and never trusted from disk).
			info, aerr := core.AnalyzeSource(name, source)
			if aerr != nil {
				return nil, aerr
			}
			rep, rerr := core.ReplayTrace(name, info, cfg, core.RunOptions{}, wal.NewBlockReader(trace))
			if rerr == nil {
				if s.traces != nil {
					s.traces.Put(tkey, info, trace) // promote to memory
				}
				return rep, nil
			}
			if errors.Is(rerr, core.ErrTraceVersion) {
				s.log.Info("re-recording trace file of an older format version", "name", name, "key", tkey[:12], "err", rerr)
			} else {
				s.store.Quarantine(tkey)
				s.log.Warn("quarantined unreplayable trace file", "name", name, "key", tkey[:12], "err", rerr)
			}
		}
	}
	info, err := core.AnalyzeSource(name, source)
	if err != nil {
		return nil, err
	}
	sink := &cappedBuffer{cap: s.traceEntryCap()}
	opts := s.runOptions(budgets)
	opts.Trace = sink
	rep, err := core.Run(info, cfg, opts)
	if err == nil && !sink.overflow {
		if s.traces != nil {
			s.traces.Put(tkey, info, sink.blocks)
		}
		if s.store != nil {
			if perr := s.store.Put(tkey, sink.blocks); perr != nil {
				s.log.Warn("trace store write failed", "name", name, "key", tkey[:12], "err", perr)
			}
		}
	}
	return rep, err
}

// traceEntryCap bounds a recorded trace: the memory tier's per-entry
// cap when it exists, else the default tier's.
func (s *Server) traceEntryCap() int64 {
	if s.traces != nil {
		return s.traces.EntryCap()
	}
	return DefaultTraceCacheBytes / 4
}

// SweepRequest is the POST /v1/sweep body.
type SweepRequest struct {
	// Benchmarks names registered kernels (empty = every kernel).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Configs are paper configuration strings (empty = the fourteen
	// paper configurations).
	Configs []string `json:"configs,omitempty"`
	// IncludeReports attaches each completed cell's full report.
	IncludeReports bool `json:"includeReports,omitempty"`
}

// SweepCellJSON is one (benchmark, configuration) cell of a sweep.
type SweepCellJSON struct {
	Bench    string       `json:"bench"`
	Config   core.Config  `json:"config"`
	Outcome  core.Outcome `json:"outcome"`
	Speedup  float64      `json:"speedup,omitempty"`
	Coverage float64      `json:"coverage,omitempty"`
	Error    string       `json:"error,omitempty"`
	Report   *core.Report `json:"report,omitempty"`
}

// SweepResponse is the POST /v1/sweep body: partial results are the
// point, so the response is 200 even when cells failed.
type SweepResponse struct {
	Cells   []SweepCellJSON      `json:"cells"`
	Counts  map[core.Outcome]int `json:"counts"`
	Summary string               `json:"summary"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeJSON(w, r, s.opts.MaxSourceBytes, &req); err != nil {
		s.badRequest(w, "decoding request: %v", err)
		return
	}
	benches, cfgs, err := s.resolveSelection(req.Benchmarks, req.Configs)
	if err != nil {
		s.badRequest(w, "%v", err)
		return
	}

	// A sweep is one limiter unit: its internal workers already bound the
	// per-cell parallelism, the slot just keeps sweeps from piling onto
	// analyze traffic.
	if err := s.lim.Acquire(r.Context()); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{
			Error:    "server busy: " + err.Error(),
			Outcome:  core.OutcomeCanceled,
			ExitCode: core.OutcomeCanceled.ExitCode(),
		})
		return
	}
	sr := func() *bench.SweepResult {
		defer s.lim.Release()
		return s.harness.Sweep(r.Context(), benches, cfgs)
	}()

	resp := SweepResponse{
		Counts:  map[core.Outcome]int{},
		Summary: sr.Summary(),
	}
	for _, c := range sr.Cells {
		cell := SweepCellJSON{Bench: c.Bench, Config: c.Config, Outcome: c.Outcome}
		if c.Err != nil {
			cell.Error = c.Err.Error()
		} else if c.Report != nil {
			cell.Speedup = c.Report.Speedup()
			cell.Coverage = c.Report.Coverage()
			if req.IncludeReports {
				cell.Report = c.Report
			}
		}
		resp.Cells = append(resp.Cells, cell)
		resp.Counts[c.Outcome]++
		s.mSweepCells.Inc(c.Outcome.String())
	}
	writeJSON(w, http.StatusOK, resp)
}

// HealthzResponse is the GET /healthz body.
type HealthzResponse struct {
	Status        string `json:"status"`
	UptimeSeconds int64  `json:"uptimeSeconds"`
	CacheEntries  int    `json:"cacheEntries"`
	InflightRuns  int    `json:"inflightRuns"`
}

// handleHealthz is pure liveness: the process is up and can answer.
// It stays 200 through drain and quarantine so orchestrators don't
// restart a process that is merely refusing traffic — readiness lives
// at /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, HealthzResponse{
		Status:        "ok",
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
		CacheEntries:  s.cache.Stats().Entries,
		InflightRuns:  s.lim.InUse(),
	})
}

// AddReadyCheck appends a readiness gate after construction (e.g. for
// workers created once the server exists). Safe to call while serving.
func (s *Server) AddReadyCheck(check ReadyCheck) {
	s.readyMu.Lock()
	s.readyChecks = append(s.readyChecks, check)
	s.readyMu.Unlock()
}

// ReadyzResponse is the GET /readyz body.
type ReadyzResponse struct {
	// Status is "ready" (200) or "not-ready" (503).
	Status string `json:"status"`
	// Reasons lists why the process refuses traffic (empty when ready).
	Reasons []string `json:"reasons,omitempty"`
}

// handleReadyz is readiness: NOT-READY while the server is draining
// toward shutdown and while any configured ReadyCheck fails (a worker
// role quarantined by its circuit breaker, for example).
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	var reasons []string
	if s.draining.Load() {
		reasons = append(reasons, "draining: shutdown in progress")
	}
	s.readyMu.RLock()
	checks := s.readyChecks
	s.readyMu.RUnlock()
	for _, check := range checks {
		if err := check(); err != nil {
			reasons = append(reasons, err.Error())
		}
	}
	if len(reasons) > 0 {
		writeJSON(w, http.StatusServiceUnavailable, ReadyzResponse{Status: "not-ready", Reasons: reasons})
		return
	}
	writeJSON(w, http.StatusOK, ReadyzResponse{Status: "ready"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.Write(w)
}
