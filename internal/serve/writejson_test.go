package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"loopapalooza/internal/bench"
	"loopapalooza/internal/core"
)

// writeJSONValues returns one value of each response type writeJSON
// sends; the analyze response, which carries a real report, also comes
// back alone.
func writeJSONValues(t *testing.T) (analyze AnalyzeResponse, all []any) {
	t.Helper()
	bm := bench.ByName("181.mcf")
	rep, err := core.RunSource(bm.Name, bm.Source, core.BestHELIX(), core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	analyze = AnalyzeResponse{Report: rep, Outcome: core.OutcomeOK, ElapsedMs: 17}
	sweep := SweepResponse{
		Cells: []SweepCellJSON{
			{Bench: bm.Name, Config: core.BestHELIX(), Outcome: core.OutcomeOK, Speedup: rep.Speedup(), Coverage: rep.Coverage(), Report: rep},
			{Bench: "456.hmmer", Config: core.Config{Model: core.DOALL}, Outcome: core.OutcomeStepLimit, Error: "step limit <5000> & over"},
		},
		Counts:  map[core.Outcome]int{core.OutcomeOK: 1, core.OutcomeStepLimit: 1},
		Summary: "2 cells: 1 ok, 1 step-limit",
	}
	bad := ErrorResponse{
		Error:    "compile error",
		Outcome:  core.OutcomeError,
		ExitCode: core.OutcomeError.ExitCode(),
		Diagnostics: []DiagPos{
			{File: "bad.lpc", Line: 1, Col: 11, Severity: "error", Message: `expected ")", found "int"`},
		},
	}
	return analyze, []any{analyze, sweep, bad}
}

// TestWriteJSONBytes: writeJSON's body is json.MarshalIndent(v, "", "  ")
// and a newline, for every response type, while several goroutines pass
// the pooled buffers between types; a value that cannot be encoded
// leaves the body empty.
func TestWriteJSONBytes(t *testing.T) {
	_, values := writeJSONValues(t)
	wants := make([][]byte, len(values))
	for i, v := range values {
		want, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = append(want, '\n')
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 5 {
				for i := range values {
					v := values[(i+g)%len(values)]
					rec := httptest.NewRecorder()
					writeJSON(rec, http.StatusTeapot, v)
					if !bytes.Equal(rec.Body.Bytes(), wants[(i+g)%len(values)]) {
						t.Errorf("goroutine %d, round %d, %T: body differs from json.MarshalIndent:\n got %q\nwant %q",
							g, round, v, rec.Body.Bytes(), wants[(i+g)%len(values)])
						return
					}
					if rec.Code != http.StatusTeapot || rec.Header().Get("Content-Type") != "application/json" {
						t.Errorf("%T: status %d, content type %q", v, rec.Code, rec.Header().Get("Content-Type"))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusInternalServerError, math.NaN())
	if rec.Code != http.StatusInternalServerError || rec.Body.Len() != 0 {
		t.Errorf("unencodable value: status %d, body %q; want 500 and no body", rec.Code, rec.Body.Bytes())
	}
}

// discardWriter is a ResponseWriter that keeps its header map and drops
// the body, so a measurement counts writeJSON's allocations alone.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header         { return d.h }
func (d discardWriter) WriteHeader(int)             {}
func (d discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestWriteJSONWarmAllocs: a warm analyze-response write reuses its
// pooled buffer and the encoder's indentation buffer, so it allocates at
// most 1.5x the response's size, most of it the report's own MarshalJSON
// output (1.08x on 181.mcf). A new encoder per write grew a fresh
// indentation buffer each time and allocated 3.97x.
func TestWriteJSONWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	resp, _ := writeJSONValues(t)
	w := discardWriter{h: http.Header{}}
	writeJSON(w, http.StatusOK, resp)
	size, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	const writes = 20
	per := float64(allocated(func() {
		for range writes {
			writeJSON(w, http.StatusOK, resp)
		}
	})) / writes
	n := float64(len(size) + 1)
	t.Logf("a warm write of a %.0f-byte analyze response allocates %.0f bytes (%.2fx)", n, per, per/n)
	if per > 1.5*n {
		t.Errorf("a warm write of a %.0f-byte analyze response allocates %.0f bytes (%.2fx), want at most 1.5x", n, per, per/n)
	}
}
