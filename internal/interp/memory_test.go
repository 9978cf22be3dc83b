package interp

import (
	"strings"
	"testing"
	"testing/quick"

	"loopapalooza/internal/analysis"
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

// TestMemorySegmentsProperty: round-trips through each memory segment
// preserve values for arbitrary payloads.
func TestMemorySegmentsProperty(t *testing.T) {
	f := func(v int64, idx uint16) bool {
		m := NewMemory(64, 0)
		gAddr := GlobalBase + int64(idx%64)
		if err := m.Store(gAddr, IntVal(v)); err != nil {
			return false
		}
		got, err := m.Load(gAddr)
		if err != nil || got.I != v {
			return false
		}
		hBase, err := m.HeapAlloc(128)
		if err != nil {
			return false
		}
		hAddr := hBase + int64(idx%128)
		if err := m.Store(hAddr, IntVal(v)); err != nil {
			return false
		}
		got, err = m.Load(hAddr)
		if err != nil || got.I != v {
			return false
		}
		sBase, err := m.Alloca(128)
		if err != nil {
			return false
		}
		sAddr := sBase + int64(idx%128)
		if err := m.Store(sAddr, IntVal(v)); err != nil {
			return false
		}
		got, err = m.Load(sAddr)
		return err == nil && got.I == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
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
	if _, err := m.Load(a); err == nil {
		t.Error("load from popped frame should fail")
	}
}
