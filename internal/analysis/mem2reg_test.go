package analysis

import (
	"testing"

	"loopapalooza/internal/ir"
	"loopapalooza/internal/lang"
)

func countOps(f *ir.Function, op ir.Op) int {
	n := 0
	for _, b := range f.Blocks {
		for _, i := range b.Instrs {
			if i.Op == op {
				n++
			}
		}
	}
	return n
}

func TestMem2RegPromotesNestedLoopVars(t *testing.T) {
	m, f := nestedLoops(t)
	n := Mem2Reg(f)
	if n != 3 {
		t.Fatalf("promoted %d allocas, want 3", n)
	}
	if got := countOps(f, ir.OpAlloca); got != 0 {
		t.Errorf("%d allocas remain", got)
	}
	if got := countOps(f, ir.OpLoad); got != 0 {
		t.Errorf("%d loads remain", got)
	}
	if got := countOps(f, ir.OpStore); got != 0 {
		t.Errorf("%d stores remain", got)
	}
	if got := countOps(f, ir.OpPhi); got == 0 {
		t.Error("no phis inserted")
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("invalid after mem2reg: %v\n%s", err, f)
	}
}

func TestMem2RegSkipsEscapingAlloca(t *testing.T) {
	m := ir.NewModule("esc")
	callee := m.AddFunction("sink", ir.Void, &ir.Param{Nm: "p", Ty: ir.PtrTo(ir.Int)})
	bc := ir.NewBuilder(callee)
	bc.Ret(nil)

	f := m.AddFunction("f", ir.Int)
	bld := ir.NewBuilder(f)
	a := bld.Alloca(ir.Int, ir.ConstInt(1), "a")
	bld.Store(a, ir.ConstInt(5))
	bld.Call(callee, a) // address escapes
	v := bld.Load(a)
	bld.Ret(v)
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	if n := Mem2Reg(f); n != 0 {
		t.Fatalf("promoted %d, want 0 (escaping)", n)
	}
	if countOps(f, ir.OpAlloca) != 1 {
		t.Error("escaping alloca removed")
	}
}

func TestMem2RegSkipsArrays(t *testing.T) {
	m := ir.NewModule("arr")
	f := m.AddFunction("f", ir.Int)
	bld := ir.NewBuilder(f)
	a := bld.Alloca(ir.Int, ir.ConstInt(8), "buf")
	bld.Store(a, ir.ConstInt(1))
	bld.Ret(bld.Load(a))
	if n := Mem2Reg(f); n != 0 {
		t.Fatalf("promoted %d, want 0 (multi-cell)", n)
	}
}

func TestMem2RegUninitializedLoadGetsZero(t *testing.T) {
	m := ir.NewModule("z")
	f := m.AddFunction("f", ir.Int)
	bld := ir.NewBuilder(f)
	a := bld.Alloca(ir.Int, ir.ConstInt(1), "a")
	v := bld.Load(a)
	bld.Ret(v)
	Mem2Reg(f)
	ret := f.Entry().Terminator()
	if c, ok := ir.ConstIntValue(ret.Args[0]); !ok || c != 0 {
		t.Fatalf("ret arg = %v, want 0", ret.Args[0])
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
}

func TestMem2RegDiamondPhi(t *testing.T) {
	// x = 1; if (c) x = 2; return x  =>  phi at the join.
	m := ir.NewModule("d")
	f := m.AddFunction("f", ir.Int, &ir.Param{Nm: "c", Ty: ir.Bool})
	bld := ir.NewBuilder(f)
	x := bld.Alloca(ir.Int, ir.ConstInt(1), "x")
	bld.Store(x, ir.ConstInt(1))
	thenB := f.NewBlock("then")
	join := f.NewBlock("join")
	bld.Br(f.Params[0], thenB, join)
	bld.SetBlock(thenB)
	bld.Store(x, ir.ConstInt(2))
	bld.Jmp(join)
	bld.SetBlock(join)
	bld.Ret(bld.Load(x))

	Mem2Reg(f)
	if err := ir.Verify(m); err != nil {
		t.Fatalf("invalid: %v\n%s", err, f)
	}
	phis := join.Phis()
	if len(phis) != 1 {
		t.Fatalf("join has %d phis, want 1\n%s", len(phis), f)
	}
	vals := map[int64]bool{}
	for _, a := range phis[0].Args {
		c, ok := ir.ConstIntValue(a)
		if !ok {
			t.Fatalf("phi arg not const: %v", a)
		}
		vals[c] = true
	}
	if !vals[1] || !vals[2] {
		t.Errorf("phi merges %v, want {1,2}", vals)
	}
}

func TestSimplifyPhisRemovesTrivial(t *testing.T) {
	m := ir.NewModule("tp")
	f := m.AddFunction("f", ir.Int, &ir.Param{Nm: "c", Ty: ir.Bool})
	bld := ir.NewBuilder(f)
	a := f.NewBlock("a")
	b := f.NewBlock("b")
	j := f.NewBlock("j")
	bld.Br(f.Params[0], a, b)
	bld.SetBlock(a)
	bld.Jmp(j)
	bld.SetBlock(b)
	bld.Jmp(j)
	bld.SetBlock(j)
	phi := bld.Phi(ir.Int, "p")
	phi.SetPhiIncoming(a, ir.ConstInt(9))
	phi.SetPhiIncoming(b, ir.ConstInt(9))
	bld.Ret(phi)

	if n := SimplifyPhis(f); n != 1 {
		t.Fatalf("removed %d phis, want 1", n)
	}
	ret := j.Terminator()
	if c, ok := ir.ConstIntValue(ret.Args[0]); !ok || c != 9 {
		t.Fatalf("ret arg = %v, want 9", ret.Args[0])
	}
}

// TestMem2RegPhiNamesDeterministic: a variable stored in several blocks
// gets its phis placed from a work list of those blocks; seeding the list
// in block order names the phis the same way on every compile. The loop
// assigns two variables conditionally, so each has several defining
// blocks and phis at both the join and the header.
func TestMem2RegPhiNamesDeterministic(t *testing.T) {
	const src = `
func main() int {
	var i int;
	var s int = 0;
	var t int = 1;
	for (i = 0; i < 10; i = i + 1) {
		if (i % 2 == 0) { s = s + i; } else { t = t * 2; }
		if (i % 3 == 0) { t = t + s; } else { s = s - 1; }
	}
	return s + t;
}`
	var first string
	for run := range 8 {
		m, err := lang.Compile("phis.lpc", src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := AnalyzeModule(m); err != nil {
			t.Fatal(err)
		}
		text := m.String()
		if run == 0 {
			first = text
		} else if text != first {
			t.Fatalf("compile %d printed different IR:\n%s\nfirst compile:\n%s", run, text, first)
		}
	}
}
