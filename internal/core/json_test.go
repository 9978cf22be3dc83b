package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// allOutcomes enumerates every defined taxonomy value.
func allOutcomes() []Outcome {
	var out []Outcome
	for o := OutcomeOK; o <= OutcomeError; o++ {
		out = append(out, o)
	}
	return out
}

// TestOutcomeStringRoundTrip pins the label of every taxonomy value and
// checks ParseOutcome inverts String exactly.
func TestOutcomeStringRoundTrip(t *testing.T) {
	want := map[Outcome]string{
		OutcomeOK:           "ok",
		OutcomeStepLimit:    "step-limit",
		OutcomeMemLimit:     "mem-limit",
		OutcomeTimeout:      "timeout",
		OutcomeCanceled:     "canceled",
		OutcomePanic:        "panic",
		OutcomeRuntimeError: "runtime-error",
		OutcomeError:        "error",
	}
	if len(want) != len(allOutcomes()) {
		t.Fatalf("taxonomy drifted: %d values, test pins %d", len(allOutcomes()), len(want))
	}
	for o, label := range want {
		if got := o.String(); got != label {
			t.Errorf("%d.String() = %q, want %q", o, got, label)
		}
		parsed, err := ParseOutcome(label)
		if err != nil {
			t.Errorf("ParseOutcome(%q): %v", label, err)
		}
		if parsed != o {
			t.Errorf("ParseOutcome(%q) = %v, want %v", label, parsed, o)
		}
	}
	if _, err := ParseOutcome("no-such-outcome"); err == nil {
		t.Error("ParseOutcome accepted an unknown label")
	}
	if got := Outcome(200).String(); got != "outcome(200)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}

// TestOutcomeJSONRoundTrip checks every taxonomy value survives a JSON
// round trip, both as a value and as a map key.
func TestOutcomeJSONRoundTrip(t *testing.T) {
	for _, o := range allOutcomes() {
		b, err := json.Marshal(o)
		if err != nil {
			t.Fatalf("marshal %v: %v", o, err)
		}
		if want := fmt.Sprintf("%q", o.String()); string(b) != want {
			t.Errorf("marshal %v = %s, want %s", o, b, want)
		}
		var back Outcome
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != o {
			t.Errorf("round trip %v = %v", o, back)
		}
	}
	// Map keys (the sweep endpoint's Counts) use the same labels.
	counts := map[Outcome]int{OutcomeOK: 3, OutcomeStepLimit: 1}
	b, err := json.Marshal(counts)
	if err != nil {
		t.Fatal(err)
	}
	var back map[Outcome]int
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(counts, back) {
		t.Errorf("map round trip: got %v, want %v", back, counts)
	}
	if _, err := json.Marshal(Outcome(200)); err == nil {
		t.Error("marshal accepted an out-of-range outcome")
	}
}

// TestOutcomeExitCode pins the exit-code contract shared by lpa and the
// serve layer: every taxonomy value maps to its documented code.
func TestOutcomeExitCode(t *testing.T) {
	tests := []struct {
		outcome Outcome
		code    int
	}{
		{OutcomeOK, 0},
		{OutcomeRuntimeError, 3},
		{OutcomeStepLimit, 4},
		{OutcomeMemLimit, 5},
		{OutcomeTimeout, 6},
		{OutcomeCanceled, 7},
		{OutcomePanic, 1},
		{OutcomeError, 1},
	}
	if len(tests) != len(allOutcomes()) {
		t.Fatalf("taxonomy drifted: %d values, test pins %d", len(allOutcomes()), len(tests))
	}
	for _, tt := range tests {
		if got := tt.outcome.ExitCode(); got != tt.code {
			t.Errorf("%v.ExitCode() = %d, want %d", tt.outcome, got, tt.code)
		}
	}
}

// TestClassifyExitCode walks error → Classify → ExitCode, the exact path
// the lpa process boundary and the serve error bodies take.
func TestClassifyExitCode(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("core: prog: %w", err) }
	tests := []struct {
		name string
		err  error
		code int
	}{
		{"nil", nil, 0},
		{"runtime", wrap(ErrRuntime), 3},
		{"steps", wrap(ErrStepLimit), 4},
		{"mem", wrap(ErrMemLimit), 5},
		{"deadline", wrap(ErrDeadline), 6},
		{"ctx-deadline", context.DeadlineExceeded, 6},
		{"canceled", wrap(ErrCanceled), 7},
		{"ctx-canceled", context.Canceled, 7},
		{"panic", wrap(&PanicError{Val: "boom"}), 1},
		{"other", errors.New("bad config"), 1},
	}
	for _, tt := range tests {
		if got := Classify(tt.err).ExitCode(); got != tt.code {
			t.Errorf("%s: exit code %d, want %d", tt.name, got, tt.code)
		}
	}
}

// TestConfigJSONRoundTrip checks Config encodes as its paper string and
// parses back, for every paper configuration.
func TestConfigJSONRoundTrip(t *testing.T) {
	for _, cfg := range PaperConfigs() {
		b, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("marshal %v: %v", cfg, err)
		}
		if want := fmt.Sprintf("%q", cfg.String()); string(b) != want {
			t.Errorf("marshal %v = %s, want %s", cfg, b, want)
		}
		var back Config
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != cfg {
			t.Errorf("round trip %v = %v", cfg, back)
		}
	}
	var bad Config
	if err := json.Unmarshal([]byte(`"reduc9-dep9-fn9 NOPE"`), &bad); err == nil {
		t.Error("unmarshal accepted an invalid configuration")
	}
}

// TestModelSerialReasonText pins the enum text encodings.
func TestModelSerialReasonText(t *testing.T) {
	for _, m := range []Model{DOALL, PDOALL, HELIX} {
		b, err := m.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Model
		if err := back.UnmarshalText(b); err != nil {
			t.Fatal(err)
		}
		if back != m {
			t.Errorf("model round trip %v = %v", m, back)
		}
	}
	var m Model
	if err := m.UnmarshalText([]byte("doacross")); err != nil || m != HELIX {
		t.Errorf("DOACROSS alias: %v, %v", m, err)
	}
	if err := m.UnmarshalText([]byte("SIMD")); err == nil {
		t.Error("unmarshal accepted an unknown model")
	}
	for r := SerialNone; r <= SerialNoGain; r++ {
		b, err := r.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back SerialReason
		if err := back.UnmarshalText(b); err != nil {
			t.Fatal(err)
		}
		if back != r {
			t.Errorf("reason round trip %v = %v", r, back)
		}
	}
	var r SerialReason
	if err := r.UnmarshalText([]byte("cosmic rays")); err == nil {
		t.Error("unmarshal accepted an unknown serial reason")
	}
}

// TestDepCensusJSONRoundTrip checks the census object encoding.
func TestDepCensusJSONRoundTrip(t *testing.T) {
	var c DepCensus
	c.Add(DepComputable, 4)
	c.Add(DepMemFrequent, 2)
	c.Add(DepStructural, 1)
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	// Every category is present, slug-keyed.
	for _, cat := range Categories() {
		if !strings.Contains(string(b), fmt.Sprintf("%q", cat.Slug())) {
			t.Errorf("census JSON missing category %q: %s", cat.Slug(), b)
		}
	}
	var back DepCensus
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != c {
		t.Errorf("census round trip: got %+v, want %+v", back, c)
	}
	if err := json.Unmarshal([]byte(`{"quantum":1}`), &back); err == nil {
		t.Error("unmarshal accepted an unknown category")
	}
}

// TestReportJSONRoundTrip runs a real program and round-trips its report,
// checking the derived fields are present on the wire.
func TestReportJSONRoundTrip(t *testing.T) {
	const src = `
const N = 200;
var tab [N]int;
func main() int {
	var i int;
	for (i = 0; i < N; i = i + 1) { tab[i] = i * 3 % 17; }
	var sum int = 0;
	for (i = 0; i < N; i = i + 1) { sum = sum + tab[i]; }
	return sum;
}`
	rep, err := RunSource("jsonprog", src, Config{Model: HELIX, Reduc: 1, Fn: 2}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"benchmark"`, `"config"`, `"speedup"`, `"coverage"`, `"loops"`, `"census"`, `"anomalies"`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("report JSON missing %s:\n%s", key, b)
		}
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Benchmark != rep.Benchmark || back.Config != rep.Config ||
		back.SerialCost != rep.SerialCost || back.ParallelCost != rep.ParallelCost ||
		back.CoveredTicks != rep.CoveredTicks || back.Census != rep.Census ||
		back.Anomalies != rep.Anomalies || !reflect.DeepEqual(back.Loops, rep.Loops) {
		t.Errorf("report round trip mismatch:\ngot  %+v\nwant %+v", back, *rep)
	}
	if back.Speedup() != rep.Speedup() {
		t.Errorf("derived speedup drifted: %v vs %v", back.Speedup(), rep.Speedup())
	}
}

// TestReportJSONLoops: a program without loops reports "loops": null,
// and one with loops an array of them.
func TestReportJSONLoops(t *testing.T) {
	for _, tc := range []struct {
		src, want string
	}{
		{"func main() int { return 7; }", `"loops":null`},
		{"func main() int { var i int; for (i = 0; i < 3; i = i + 1) { } return i; }", `"loops":[{`},
	} {
		rep, err := RunSource("noloops", tc.src, BestHELIX(), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(b), tc.want) {
			t.Errorf("report JSON lacks %s:\n%s", tc.want, b)
		}
	}
}
