package serve

import (
	"errors"
	"fmt"
	"net/http"

	"loopapalooza/internal/bench"
	"loopapalooza/internal/cluster"
	"loopapalooza/internal/core"
)

// The cluster surface of the server: the async job API backed by a
// cluster.Coordinator (POST /v1/jobs, GET /v1/jobs/{id}), the
// worker-facing lease endpoints (POST /v1/cluster/*), and fleet
// observability (GET /v1/cluster/workers). Mounted only when
// Options.Cluster is set — a standalone analysis service carries none
// of it.

// JobRequest is the POST /v1/jobs body. Benchmarks and Configs select
// cells exactly as in a synchronous sweep; the job executes on the
// worker fleet and is polled via GET /v1/jobs/{id}.
type JobRequest struct {
	// Tenant names the submitting tenant for queueing, admission
	// control, and rate limiting ("" = "default").
	Tenant string `json:"tenant,omitempty"`
	// Benchmarks names registered kernels (empty = every kernel).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Configs are paper configuration strings (empty = the fourteen
	// paper configurations).
	Configs []string `json:"configs,omitempty"`
	// IncludeReports attaches full reports to completed cells in status
	// responses.
	IncludeReports bool `json:"includeReports,omitempty"`
}

// JobSubmitResponse is the POST /v1/jobs success body.
type JobSubmitResponse struct {
	// Job is the job id.
	Job string `json:"job"`
	// StatusURL polls the job.
	StatusURL string `json:"statusUrl"`
	// Cells is the job's cell count.
	Cells int `json:"cells"`
}

// resolveSelection maps benchmark names and configuration strings to
// their registered values, defaulting to every kernel and the paper
// grid. Shared by the synchronous sweep and the async job API. A name or
// configuration given twice is rejected — configurations compare after
// parsing, so two spellings of one configuration are a repeat — which
// bounds a selection at the registered kernels times the valid
// configurations, however large the request body.
func (s *Server) resolveSelection(names, cfgStrs []string) ([]*bench.Benchmark, []core.Config, error) {
	benches := bench.All()
	if len(names) > 0 {
		benches = benches[:0:0]
		seen := make(map[*bench.Benchmark]bool, len(names))
		for _, name := range names {
			b := bench.ByName(name)
			if b == nil {
				return nil, nil, &selectionError{msg: "unknown benchmark " + name}
			}
			if seen[b] {
				return nil, nil, &selectionError{msg: "benchmark " + name + " selected twice"}
			}
			seen[b] = true
			benches = append(benches, b)
		}
	}
	cfgs := core.PaperConfigs()
	if len(cfgStrs) > 0 {
		cfgs = cfgs[:0:0]
		seen := make(map[core.Config]bool, len(cfgStrs))
		for _, cs := range cfgStrs {
			cfg, err := core.ParseConfig(cs)
			if err != nil {
				return nil, nil, err
			}
			if seen[cfg] {
				return nil, nil, &selectionError{msg: fmt.Sprintf("configuration %q selected twice (as %s)", cs, cfg)}
			}
			seen[cfg] = true
			cfgs = append(cfgs, cfg)
		}
	}
	return benches, cfgs, nil
}

type selectionError struct{ msg string }

func (e *selectionError) Error() string { return e.msg }

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := decodeJSON(w, r, s.opts.MaxSourceBytes, &req); err != nil {
		s.badRequest(w, "decoding request: %v", err)
		return
	}
	benches, cfgs, err := s.resolveSelection(req.Benchmarks, req.Configs)
	if err != nil {
		s.badRequest(w, "%v", err)
		return
	}
	id, err := s.opts.Cluster.Submit(req.Tenant, benches, cfgs, req.IncludeReports)
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, cluster.ErrQueueFull), errors.Is(err, cluster.ErrRateLimited):
			status = http.StatusTooManyRequests
		case errors.Is(err, cluster.ErrDraining):
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, ErrorResponse{
			Error:    err.Error(),
			Outcome:  core.OutcomeError,
			ExitCode: core.OutcomeError.ExitCode(),
		})
		return
	}
	writeJSON(w, http.StatusAccepted, JobSubmitResponse{
		Job: id, StatusURL: "/v1/jobs/" + id, Cells: len(benches) * len(cfgs),
	})
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.opts.Cluster.Status(r.PathValue("id"))
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, cluster.ErrUnknownJob) {
			status = http.StatusNotFound
		}
		writeJSON(w, status, ErrorResponse{
			Error:    err.Error(),
			Outcome:  core.OutcomeError,
			ExitCode: core.OutcomeError.ExitCode(),
		})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleClusterWorkers(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.opts.Cluster.Workers())
}
