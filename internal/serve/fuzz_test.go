package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// Bounds of the fuzzed analyze server: small enough that every request
// runs in milliseconds and its allocation is bounded by the body alone.
var fuzzBudgets = Budgets{MaxSteps: 200_000, MaxHeapCells: 1 << 14, TimeoutMs: 2_000}

const (
	// fuzzMaxBody is the fuzzed server's MaxSourceBytes.
	fuzzMaxBody = 16 << 10
	// analyzeAllocCap and analyzeAllocPerByte bound what one fuzzed
	// request may allocate: a fixed part (the run under fuzzBudgets,
	// its trace and report, the response) and a part per body byte (the
	// decoded request and the front end's IR).
	analyzeAllocCap     = 8 << 20
	analyzeAllocPerByte = 2 << 10
)

// FuzzAnalyzeBody posts arbitrary bytes to /v1/analyze on a server whose
// MaxBudgets are fuzzBudgets. The status must be 200, 400 or 422; a 200
// body must decode as an AnalyzeResponse with a report, and any other as
// an ErrorResponse with an error. A 500 (the handler's recovered panics
// among them) is a finding. Each request allocates at most
// analyzeAllocCap plus analyzeAllocPerByte per body byte. The seeds are
// valid bodies for okSrc, truncated JSON, fields of the wrong type, an
// unknown configuration, budgets past the caps, and local arrays past
// and within the stack's default bound (which the memory budget, not
// the default, must bound).
func FuzzAnalyzeBody(f *testing.F) {
	valid := func(req AnalyzeRequest) []byte {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	ok := valid(AnalyzeRequest{Name: "ok.lpc", Source: okSrc})
	for _, body := range [][]byte{
		ok,
		valid(AnalyzeRequest{Source: okSrc, Config: "reduc0-dep0-fn0 DOALL"}),
		valid(AnalyzeRequest{Source: okSrc, Config: "reduc1-dep2-fn2 PDOALL", Budgets: &Budgets{MaxSteps: 1000}}),
		valid(AnalyzeRequest{Source: "func main( int { return 0; }"}),
		ok[:len(ok)/2],
		ok[:1],
		[]byte(`{"source": 5}`),
		[]byte(`{"source": "func main() int { return 0; }", "budgets": {"maxSteps": "many"}}`),
		[]byte(`{"source": "func main() int { return 0; }", "config": 7}`),
		valid(AnalyzeRequest{Source: okSrc, Config: "reduc9-dep9-fn9 SIMD"}),
		valid(AnalyzeRequest{Source: okSrc, Budgets: &Budgets{MaxSteps: 1 << 62, MaxHeapCells: 1 << 62, TimeoutMs: 1 << 62}}),
		valid(AnalyzeRequest{Source: okSrc, Budgets: &Budgets{MaxSteps: -1, MaxHeapCells: -1, TimeoutMs: -1}}),
		[]byte(`{"source": "func main() int { var a [67108864]int; return a[1]; }"}`),
		[]byte(`{"source": "func main() int { var a [4000000]int; return a[1]; }"}`),
		[]byte(`null`),
		[]byte(`[]`),
		{},
	} {
		f.Add(body)
	}
	s, err := New(Options{MaxSourceBytes: fuzzMaxBody, MaxBudgets: fuzzBudgets, DefaultBudgets: fuzzBudgets})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body))
		w := httptest.NewRecorder()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		h.ServeHTTP(w, req)
		runtime.ReadMemStats(&ms)
		if grew := ms.TotalAlloc - before; grew > analyzeAllocCap+analyzeAllocPerByte*uint64(len(body)) {
			t.Fatalf("a %d-byte body allocated %d bytes", len(body), grew)
		}
		dec := json.NewDecoder(w.Body)
		switch w.Code {
		case http.StatusOK:
			var ar AnalyzeResponse
			if err := dec.Decode(&ar); err != nil || ar.Report == nil {
				t.Fatalf("200 body is no AnalyzeResponse with a report (%v):\n%s", err, w.Body)
			}
		case http.StatusBadRequest, http.StatusUnprocessableEntity:
			var er ErrorResponse
			if err := dec.Decode(&er); err != nil || strings.TrimSpace(er.Error) == "" {
				t.Fatalf("%d body is no ErrorResponse with an error (%v):\n%s", w.Code, err, w.Body)
			}
		default:
			t.Fatalf("status %d for body %q:\n%s", w.Code, body, w.Body)
		}
	})
}
