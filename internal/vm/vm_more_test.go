package vm

import (
	"testing"

	"alaska/internal/compiler"
	"alaska/internal/ir"
)

// runMain builds and runs a module in baseline mode.
func runMain(t *testing.T, build func(b *ir.Builder)) uint64 {
	t.Helper()
	f := ir.NewFunc("main", 0)
	b := ir.NewBuilder(f)
	build(b)
	f.Finish()
	m := NewBaseline(&ir.Module{Funcs: []*ir.Func{f}}, DefaultCosts)
	v, err := m.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestAllBinaryOperators(t *testing.T) {
	cases := []struct {
		op   int
		a, b int64
		want uint64
	}{
		{ir.BinAdd, 7, 5, 12},
		{ir.BinSub, 7, 5, 2},
		{ir.BinMul, 7, 5, 35},
		{ir.BinDiv, 38, 5, 7},
		{ir.BinDiv, -38, 5, ^uint64(6)},
		{ir.BinRem, 38, 5, 3},
		{ir.BinAnd, 0b1100, 0b1010, 0b1000},
		{ir.BinOr, 0b1100, 0b1010, 0b1110},
		{ir.BinXor, 0b1100, 0b1010, 0b0110},
		{ir.BinShl, 3, 4, 48},
		{ir.BinShr, 48, 4, 3},
	}
	for _, c := range cases {
		got := runMain(t, func(b *ir.Builder) {
			r := b.Bin(c.op, b.Const(c.a), b.Const(c.b))
			b.Ret(r)
		})
		if got != c.want {
			t.Errorf("op %d (%d, %d) = %d, want %d", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestAllComparisons(t *testing.T) {
	cases := []struct {
		pred int
		a, b int64
		want uint64
	}{
		{ir.CmpEQ, 3, 3, 1}, {ir.CmpEQ, 3, 4, 0},
		{ir.CmpNE, 3, 4, 1}, {ir.CmpNE, 3, 3, 0},
		{ir.CmpLT, -1, 1, 1}, {ir.CmpLT, 1, 1, 0},
		{ir.CmpLE, 1, 1, 1}, {ir.CmpLE, 2, 1, 0},
		{ir.CmpGT, 2, 1, 1}, {ir.CmpGT, 1, 2, 0},
		{ir.CmpGE, 1, 1, 1}, {ir.CmpGE, 0, 1, 0},
	}
	for _, c := range cases {
		got := runMain(t, func(b *ir.Builder) {
			r := b.Cmp(c.pred, b.Const(c.a), b.Const(c.b))
			b.Ret(r)
		})
		if got != c.want {
			t.Errorf("pred %d (%d, %d) = %d, want %d", c.pred, c.a, c.b, got, c.want)
		}
	}
}

func TestGEPNegativeOffsetOnHandle(t *testing.T) {
	// Under Alaska, interior handles support negative GEPs back toward
	// the base (Handle.Add semantics).
	f := ir.NewFunc("main", 0)
	b := ir.NewBuilder(f)
	p := b.Alloc(b.Const(32))
	eight := b.Const(8)
	interior := b.GEP(p, b.Const(16))
	back := b.GEP(interior, b.Sub(b.Const(0), eight)) // -8 -> offset 8
	c7 := b.Const(7)
	b.Store(back, c7)
	v := b.Load(b.GEP(p, eight), ir.Int)
	b.Ret(v)
	f.Finish()
	m := &ir.Module{Funcs: []*ir.Func{f}}
	if _, err := compiler.Transform(m, compiler.DefaultOptions); err != nil {
		t.Fatal(err)
	}
	ma, err := NewAlaska(m, DefaultCosts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ma.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Errorf("negative GEP result = %d, want 7", got)
	}
}

func TestFunctionArguments(t *testing.T) {
	callee := ir.NewFunc("addmul", 3)
	cb := ir.NewBuilder(callee)
	x := cb.Param(0, ir.Int)
	y := cb.Param(1, ir.Int)
	z := cb.Param(2, ir.Int)
	cb.Ret(cb.Add(cb.Mul(x, y), z))
	callee.Finish()

	f := ir.NewFunc("main", 0)
	b := ir.NewBuilder(f)
	r := b.Call("addmul", ir.Int, b.Const(3), b.Const(4), b.Const(5))
	b.Ret(r)
	f.Finish()
	m := NewBaseline(&ir.Module{Funcs: []*ir.Func{f, callee}}, DefaultCosts)
	v, err := m.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	if v != 17 {
		t.Errorf("addmul = %d, want 17", v)
	}
}

func TestRecursionDepthGuard(t *testing.T) {
	f := ir.NewFunc("main", 0)
	b := ir.NewBuilder(f)
	r := b.Call("main", ir.Int) // infinite recursion
	b.Ret(r)
	f.Finish()
	m := NewBaseline(&ir.Module{Funcs: []*ir.Func{f}}, DefaultCosts)
	if _, err := m.Run("main"); err == nil {
		t.Error("infinite recursion not trapped")
	}
}

func TestRunWithTopLevelArgs(t *testing.T) {
	f := ir.NewFunc("main", 2)
	b := ir.NewBuilder(f)
	x := b.Param(0, ir.Int)
	y := b.Param(1, ir.Int)
	b.Ret(b.Add(x, y))
	f.Finish()
	m := NewBaseline(&ir.Module{Funcs: []*ir.Func{f}}, DefaultCosts)
	v, err := m.Run("main", 30, 12)
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Errorf("main(30,12) = %d", v)
	}
}

func TestMissingParamErrors(t *testing.T) {
	f := ir.NewFunc("main", 1)
	b := ir.NewBuilder(f)
	x := b.Param(0, ir.Int)
	b.Ret(x)
	f.Finish()
	m := NewBaseline(&ir.Module{Funcs: []*ir.Func{f}}, DefaultCosts)
	if _, err := m.Run("main"); err == nil {
		t.Error("missing argument not reported")
	}
}

func TestCustomExternal(t *testing.T) {
	f := ir.NewFunc("main", 0)
	b := ir.NewBuilder(f)
	r := b.Call("my_ext", ir.Int, b.Const(21))
	b.Ret(r)
	f.Finish()
	m := NewBaseline(&ir.Module{Funcs: []*ir.Func{f}}, DefaultCosts)
	m.externals["my_ext"] = func(m *Machine, args []uint64) (uint64, error) {
		return args[0] * 2, nil
	}
	v, err := m.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Errorf("my_ext = %d", v)
	}
}

func TestUnknownExternalErrors(t *testing.T) {
	f := ir.NewFunc("main", 0)
	b := ir.NewBuilder(f)
	b.Call("nonexistent", ir.Int)
	b.Ret(nil)
	f.Finish()
	m := NewBaseline(&ir.Module{Funcs: []*ir.Func{f}}, DefaultCosts)
	if _, err := m.Run("main"); err == nil {
		t.Error("unknown external not reported")
	}
}

func TestUseAfterFreeFaults(t *testing.T) {
	// With hoisting, the translation sits above the free and a UAF is
	// undefined behaviour exactly as in the paper's (3.2) contract. With
	// per-access translation (hoisting off), the freed HTE is consulted
	// at the access and the UAF is caught.
	f := ir.NewFunc("main", 0)
	b := ir.NewBuilder(f)
	p := b.Alloc(b.Const(8))
	b.Free(p)
	v := b.Load(p, ir.Int)
	b.Ret(v)
	f.Finish()
	m := &ir.Module{Funcs: []*ir.Func{f}}
	if _, err := compiler.Transform(m, compiler.Options{Hoisting: false, Tracking: true}); err != nil {
		t.Fatal(err)
	}
	ma, err := NewAlaska(m, DefaultCosts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ma.Run("main"); err == nil {
		t.Error("use-after-free not detected — freed HTE translated")
	}
}

func TestDoubleFreeDetected(t *testing.T) {
	f := ir.NewFunc("main", 0)
	b := ir.NewBuilder(f)
	p := b.Alloc(b.Const(8))
	b.Free(p)
	b.Free(p)
	b.Ret(nil)
	f.Finish()
	m := &ir.Module{Funcs: []*ir.Func{f}}
	if _, err := compiler.Transform(m, compiler.DefaultOptions); err != nil {
		t.Fatal(err)
	}
	ma, err := NewAlaska(m, DefaultCosts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ma.Run("main"); err == nil {
		t.Error("double free not detected")
	}
}

func TestCycleAccountingMonotone(t *testing.T) {
	m := NewBaseline(sumArrayMem(50), DefaultCosts)
	before := m.Cycles
	if _, err := m.Run("main"); err != nil {
		t.Fatal(err)
	}
	if m.Cycles <= before {
		t.Error("no cycles charged")
	}
	if m.DynInstrs == 0 {
		t.Error("no instructions counted")
	}
}

func TestPinFramesBalancedAcrossCalls(t *testing.T) {
	// After a transformed program with nested calls runs, the thread's
	// pin stack must be empty (frames popped on every return path).
	callee := ir.NewFunc("touch", 1)
	cb := ir.NewBuilder(callee)
	p := cb.Param(0, ir.Ptr)
	v := cb.Load(p, ir.Int)
	cb.Ret(v)
	callee.Finish()

	f := ir.NewFunc("main", 0)
	b := ir.NewBuilder(f)
	obj := b.Alloc(b.Const(8))
	c5 := b.Const(5)
	zero := b.Const(0)
	ten := b.Const(10)
	one := b.Const(1)
	pt := b.GEP(obj, zero)
	b.Store(pt, c5)
	l := b.Loop("l", zero, ten, one)
	b.Call("touch", ir.Int, obj)
	b.Close(l)
	b.Ret(nil)
	f.Finish()
	m := &ir.Module{Funcs: []*ir.Func{f, callee}}
	if _, err := compiler.Transform(m, compiler.DefaultOptions); err != nil {
		t.Fatal(err)
	}
	ma, err := NewAlaska(m, DefaultCosts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ma.Run("main"); err != nil {
		t.Fatal(err)
	}
	// PopFrame panics only on an empty pin stack.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("pin stack not empty after run: PopFrame found a frame to pop")
			}
		}()
		ma.Thread.PopFrame()
	}()
	if err := ma.Close(); err != nil {
		t.Fatal(err)
	}
}
