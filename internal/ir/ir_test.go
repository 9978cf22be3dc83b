package ir

import (
	"strings"
	"testing"
)

// buildCountdown builds: func i64 @count(n) { loop { i = phi(n, i-1); if i>0 continue } return 0 }
func buildCountdown(t *testing.T) (*Module, *Function) {
	t.Helper()
	m := NewModule("test")
	f := m.AddFunction("count", Int, &Param{Nm: "n", Ty: Int})
	b := NewBuilder(f)
	head := f.NewBlock("head")
	body := f.NewBlock("body")
	exit := f.NewBlock("exit")
	b.Jmp(head)

	b.SetBlock(head)
	phi := b.Phi(Int, "i")
	cmp := b.Compare(OpGt, phi, ConstInt(0))
	b.Br(cmp, body, exit)

	b.SetBlock(body)
	dec := b.Binary(OpSub, phi, ConstInt(1))
	b.Jmp(head)

	phi.SetPhiIncoming(f.Entry(), f.Params[0])
	phi.SetPhiIncoming(body, dec)

	b.SetBlock(exit)
	b.Ret(ConstInt(0))
	return m, f
}

func TestVerifyAcceptsWellFormed(t *testing.T) {
	m, _ := buildCountdown(t)
	if err := Verify(m); err != nil {
		t.Fatalf("Verify: %v\n%s", err, m)
	}
}

func TestVerifyCatchesMissingTerminator(t *testing.T) {
	m, f := buildCountdown(t)
	exit := f.Blocks[3]
	exit.Instrs = nil
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "lacks a terminator") {
		t.Fatalf("want missing-terminator error, got %v", err)
	}
}

func TestVerifyCatchesPhiMismatch(t *testing.T) {
	m, f := buildCountdown(t)
	head := f.Blocks[1]
	phi := head.Phis()[0]
	phi.Blocks = phi.Blocks[:1]
	phi.Args = phi.Args[:1]
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "missing incoming") {
		t.Fatalf("want phi-mismatch error, got %v", err)
	}
}

func TestVerifyCatchesTypeErrors(t *testing.T) {
	m := NewModule("bad")
	f := m.AddFunction("f", Void)
	b := NewBuilder(f)
	b.Binary(OpFAdd, ConstInt(1), ConstInt(2)) // int operands to fadd
	b.Ret(nil)
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "fadd") {
		t.Fatalf("want fadd type error, got %v", err)
	}
}

func TestVerifyCatchesDuplicates(t *testing.T) {
	m := NewModule("dup")
	for i := 0; i < 2; i++ {
		f := m.AddFunction("same", Void)
		bld := NewBuilder(f)
		bld.Ret(nil)
	}
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "duplicate function") {
		t.Fatalf("want duplicate error, got %v", err)
	}
}

func TestPredsAndSuccs(t *testing.T) {
	_, f := buildCountdown(t)
	f.Renumber()
	preds := f.Preds()
	head := f.Blocks[1]
	if got := len(preds[head.Index]); got != 2 {
		t.Fatalf("head preds = %d, want 2", got)
	}
	if got := len(head.Succs()); got != 2 {
		t.Fatalf("head succs = %d, want 2", got)
	}
	if f.Entry().Succs()[0] != head {
		t.Fatalf("entry successor is %v, want head", f.Entry().Succs()[0])
	}
}

func TestPhiIncomingLookup(t *testing.T) {
	_, f := buildCountdown(t)
	head := f.Blocks[1]
	body := f.Blocks[2]
	phi := head.Phis()[0]
	if v := phi.PhiIncoming(f.Entry()); v != f.Params[0] {
		t.Fatalf("incoming from entry = %v, want param n", v)
	}
	if v := phi.PhiIncoming(body); v == nil {
		t.Fatal("incoming from body missing")
	}
	if v := phi.PhiIncoming(f.Blocks[3]); v != nil {
		t.Fatalf("incoming from exit = %v, want nil", v)
	}
}

func TestReplaceUses(t *testing.T) {
	_, f := buildCountdown(t)
	old := f.Params[0]
	ReplaceUses(f, old, ConstInt(7))
	head := f.Blocks[1]
	phi := head.Phis()[0]
	if v, ok := ConstIntValue(phi.PhiIncoming(f.Entry())); !ok || v != 7 {
		t.Fatalf("phi incoming after ReplaceUses = %v", phi.PhiIncoming(f.Entry()))
	}
}

func TestPrinterRoundTrips(t *testing.T) {
	m, _ := buildCountdown(t)
	s := m.String()
	for _, want := range []string{"func i64 @count", "phi", "br %cmp", "ret 0", ".head:"} {
		if !strings.Contains(s, want) {
			t.Errorf("printed module missing %q:\n%s", want, s)
		}
	}
}

func TestTypeStrings(t *testing.T) {
	cases := map[Type]string{
		Int:          "i64",
		Float:        "f64",
		Bool:         "i1",
		Void:         "void",
		PtrTo(Int):   "i64*",
		PtrTo(Float): "f64*",
	}
	for ty, want := range cases {
		if got := ty.String(); got != want {
			t.Errorf("%#v.String() = %q, want %q", ty, got, want)
		}
	}
}

func TestBuilderPanicsAfterTerminator(t *testing.T) {
	m := NewModule("p")
	f := m.AddFunction("f", Void)
	b := NewBuilder(f)
	b.Ret(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic emitting after terminator")
		}
	}()
	b.Ret(nil)
}

func TestInstrCountAndRemove(t *testing.T) {
	_, f := buildCountdown(t)
	n := f.InstrCount()
	if n != 7 {
		t.Fatalf("InstrCount = %d, want 7", n)
	}
	body := f.Blocks[2]
	body.RemoveAt(0)
	if f.InstrCount() != 6 {
		t.Fatalf("InstrCount after remove = %d, want 6", f.InstrCount())
	}
}

func TestGlobalsAndLookup(t *testing.T) {
	m := NewModule("g")
	g := m.AddGlobal("table", Int, 16)
	if m.Global("table") != g {
		t.Fatal("Global lookup failed")
	}
	if m.Global("absent") != nil {
		t.Fatal("Global lookup of absent name should be nil")
	}
	if g.Type() != PtrTo(Int) {
		t.Fatalf("global type = %v", g.Type())
	}
	f := m.AddFunction("f", Void)
	if m.Func("f") != f || m.Func("nope") != nil {
		t.Fatal("Func lookup failed")
	}
}

// TestVerifyReportsBranchIntoAnotherFunction: a branch to a block of
// another function is reported, not followed. The target's Index (3) is
// past f's single block, so a predecessor list indexed by it would run off
// the end.
func TestVerifyReportsBranchIntoAnotherFunction(t *testing.T) {
	m := NewModule("cross")
	g := m.AddFunction("g", Void)
	bg := NewBuilder(g)
	for k := 0; k < 3; k++ {
		next := g.NewBlock("b")
		bg.Jmp(next)
		bg.SetBlock(next)
	}
	bg.Ret(nil)
	f := m.AddFunction("f", Void)
	NewBuilder(f).Jmp(g.Blocks[3])
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "@f.entry: jmp targets block outside function") {
		t.Fatalf("want the foreign target reported, got %v", err)
	}
}

// TestVerifyReportsDuplicateNames: a repeated value name is reported once
// per repeat, at the later definition, as the check always has.
func TestVerifyReportsDuplicateNames(t *testing.T) {
	m, f := buildCountdown(t)
	body := f.Blocks[2]
	body.Instrs[0].Nm = f.Blocks[1].Phis()[0].Nm
	err := Verify(m)
	if err == nil || strings.Count(err.Error(), "duplicate value name %"+body.Instrs[0].Nm) != 1 {
		t.Fatalf("want one duplicate-name error, got %v", err)
	}
}

// TestNextNameInjective: a hint that ends in digits cannot make a name
// another hint and sequence number also make. Joined without a separator,
// the 21st name (hint "a1", number 21) would repeat the first (hint
// "a12", number 1).
func TestNextNameInjective(t *testing.T) {
	f := NewModule("names").AddFunction("f", Void)
	seen := map[string]bool{}
	for k := 0; k < 40; k++ {
		hint := "a12"
		if k >= 20 {
			hint = "a1"
		}
		n := f.NextName(hint)
		if seen[n] {
			t.Fatalf("NextName(%q) repeated %q", hint, n)
		}
		seen[n] = true
	}
}
