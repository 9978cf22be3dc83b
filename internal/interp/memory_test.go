package interp

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/ir"
	"loopapalooza/internal/lang"
)

func wantRunError(t *testing.T, src, substr string) {
	t.Helper()
	wantRunErrorUnder(t, Config{}, src, substr)
}

func wantRunErrorUnder(t *testing.T, cfg Config, src, substr string) {
	t.Helper()
	m, err := lang.Compile("t", src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := analysis.AnalyzeModule(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(info, cfg).Run("main"); err == nil || !strings.Contains(err.Error(), substr) {
		t.Errorf("want error containing %q, got %v", substr, err)
	}
}

func TestNullPointerTraps(t *testing.T) {
	wantRunError(t, `
func main() int {
	var p *int;
	return *p;
}`, "null pointer")
}

func TestUnmappedLoadTraps(t *testing.T) {
	wantRunError(t, `
var a [4]int;
func main() int {
	var p *int = a;
	p = p + 1000000;
	return *p;
}`, "unmapped")
}

func TestDanglingFramePointerTraps(t *testing.T) {
	// leak returns the address of its own local; by the time main
	// dereferences it, the frame is gone.
	wantRunError(t, `
var saved *int;
func leak() {
	var x int = 5;
	saved = &x;
}
func main() int {
	leak();
	return *saved;
}`, "unmapped")
}

func TestStackOverflowTraps(t *testing.T) {
	wantRunError(t, `
func grow(n int) int {
	var pad [4096]int;
	pad[0] = n;
	if (n <= 0) { return pad[0]; }
	return grow(n - 1) + pad[0];
}
func main() int { return grow(100000); }`, "stack overflow")
}

// TestStackBoundedByMemoryBudget: an explicit memory budget bounds the
// stack too, so a frame larger than the budget traps far below
// DefaultStackWords; with no budget the stack keeps its default bound.
func TestStackBoundedByMemoryBudget(t *testing.T) {
	big := `
func main() int {
	var a [100000]int;
	a[99999] = 7;
	return a[99999];
}`
	wantRunErrorUnder(t, Config{MaxHeapCells: 1 << 14}, big, "stack overflow")
	if m := NewMemory(0, 1<<17); m.stackLimit != 1<<17 {
		t.Errorf("stack limit under a 2^17-cell budget = %d", m.stackLimit)
	}
	if m := NewMemory(0, 0); m.stackLimit != DefaultStackWords {
		t.Errorf("stack limit with no budget = %d, want DefaultStackWords", m.stackLimit)
	}
}

func TestHeapExhaustionTraps(t *testing.T) {
	// Exhausting the default heap budget allocates gigabytes of host
	// memory over ~100s; a reduced budget trips the same exhaustion path.
	wantRunErrorUnder(t, Config{MaxHeapCells: 1 << 22}, `
func main() int {
	var i int;
	var p *int;
	for (i = 0; i < 100000; i = i + 1) {
		p = alloc(1 << 20);
	}
	return *p;
}`, "heap exhausted")
}

func TestNegativeAllocTraps(t *testing.T) {
	wantRunError(t, `
func main() int {
	var n int = 0 - 5;
	var p *int = alloc(n);
	return *p;
}`, "negative")
}

func TestStackFrameReuseIsZeroed(t *testing.T) {
	// leave() dirties its frame; probe() then allocates the same region
	// and must see zeroed memory (the interpreter zeroes reused stack).
	src := `
func dirty() int {
	var buf [8]int;
	var i int;
	for (i = 0; i < 8; i = i + 1) { buf[i] = 77; }
	return buf[0];
}
func probe() int {
	var buf [8]int;
	return buf[3];
}
func main() int {
	var d int = dirty();
	return probe() * 1000 + d;
}`
	m, err := lang.Compile("t", src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := analysis.AnalyzeModule(m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(info, Config{}).Run("main")
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret.I != 77 { // probe() == 0
		t.Errorf("ret = %d, want 77 (uninitialized frame must read 0)", res.Ret.I)
	}
}

func TestPointerToPointer(t *testing.T) {
	src := `
var cell [1]int;
var slot [1]int;
func main() int {
	cell[0] = 41;
	var p *int = cell;
	var q *int = slot;
	*q = *p + 1;   // 42 via two pointers
	return slot[0];
}`
	m, err := lang.Compile("t", src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := analysis.AnalyzeModule(m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(info, Config{}).Run("main")
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret.I != 42 {
		t.Errorf("ret = %d, want 42", res.Ret.I)
	}
}

// sameVal reports whether two values have the same kind and payload,
// comparing floats bit for bit so NaN payloads and -0.0 count.
func sameVal(a, b Val) bool {
	return a.K == b.K && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// segmentAddrs returns one address in each segment of m, global, heap
// and stack, chosen by idx.
func segmentAddrs(t *testing.T, m *Memory, idx uint16) [3]int64 {
	t.Helper()
	hBase, err := m.HeapAlloc(128)
	if err != nil {
		t.Fatal(err)
	}
	sBase, err := m.Alloca(128)
	if err != nil {
		t.Fatal(err)
	}
	return [3]int64{GlobalBase + int64(idx%64), hBase + int64(idx%128), sBase + int64(idx%128)}
}

// TestMemorySegmentsProperty: memory holds words without kinds, so every
// kind of value round-trips through every segment when it is loaded at
// the kind it was stored: arbitrary ints, floats bit for bit (NaN
// payloads and -0.0 included), bools and pointers.
func TestMemorySegmentsProperty(t *testing.T) {
	roundTrips := func(idx uint16, vals ...Val) bool {
		m := NewMemory(64, 0)
		for _, addr := range segmentAddrs(t, m, idx) {
			for _, v := range vals {
				if err := m.Store(addr, v); err != nil {
					t.Errorf("Store(%#x, %+v): %v", addr, v, err)
					return false
				}
				got, err := m.Load(addr, v.K)
				if err != nil || !sameVal(got, v) {
					t.Errorf("Load(%#x) after Store(%+v) = %+v, %v", addr, v, got, err)
					return false
				}
			}
		}
		return true
	}
	f := func(i int64, fbits uint64, b bool, idx uint16) bool {
		return roundTrips(idx, IntVal(i), FloatVal(math.Float64frombits(fbits)), BoolVal(b), PtrVal(i))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	edges := []Val{
		IntVal(math.MinInt64), IntVal(math.MaxInt64), IntVal(-1), IntVal(0),
		FloatVal(math.Copysign(0, -1)), FloatVal(math.Inf(-1)), FloatVal(math.MaxFloat64),
		FloatVal(math.SmallestNonzeroFloat64), FloatVal(math.NaN()),
		FloatVal(math.Float64frombits(0x7ff0000000000001)), // signaling NaN
		FloatVal(math.Float64frombits(0xfff8dead0000beef)), // negative quiet NaN, payload
		BoolVal(true), BoolVal(false),
		PtrVal(NullAddr), PtrVal(HeapBase), PtrVal(StackTop - 1),
	}
	for idx := range uint16(130) {
		if !roundTrips(idx, edges...) {
			break
		}
	}
}

// TestUnwrittenCellsReadZero: a cell never written reads back as the
// zero of the load's kind in every segment, and so do the heap and stack
// cells a Reset handed back dirty once they are reserved again.
func TestUnwrittenCellsReadZero(t *testing.T) {
	m := NewMemory(64, 0)
	wantZero := func(when string) [3]int64 {
		t.Helper()
		addrs := segmentAddrs(t, m, 7)
		for _, addr := range addrs {
			for _, k := range []ir.Kind{ir.KBool, ir.KInt, ir.KFloat, ir.KPtr} {
				got, err := m.Load(addr, k)
				if err != nil || !sameVal(got, Val{K: k}) {
					t.Errorf("%s: Load(%#x, kind %d) = %+v, %v; want %+v", when, addr, k, got, err, Val{K: k})
				}
			}
		}
		return addrs
	}
	for _, addr := range wantZero("never written") {
		if err := m.Store(addr, FloatVal(math.NaN())); err != nil {
			t.Fatal(err)
		}
	}
	m.Reset(make([]uint64, 64))
	wantZero("reserved again after a Reset")
}

func TestAllocaRestoresOnReturnBoundary(t *testing.T) {
	m := NewMemory(0, 0)
	sp0 := m.SP
	a, err := m.Alloca(10)
	if err != nil {
		t.Fatal(err)
	}
	if a != sp0-10 || m.SP != sp0-10 {
		t.Fatalf("alloca layout wrong: a=%d sp=%d", a, m.SP)
	}
	b, err := m.Alloca(6)
	if err != nil {
		t.Fatal(err)
	}
	if b != a-6 {
		t.Fatalf("second alloca at %d, want %d", b, a-6)
	}
	// Frame pop is a plain sp restore (done by the interpreter).
	m.SP = sp0
	if _, err := m.Load(a, ir.KInt); err == nil {
		t.Error("load from popped frame should fail")
	}
}
