package ir

import (
	"strings"
	"testing"
)

// buildStraightLine builds: entry: c1=1; c2=2; s=c1+c2; ret s
func buildStraightLine() *Func {
	f := NewFunc("straight", 0)
	b := NewBuilder(f)
	c1 := b.Const(1)
	c2 := b.Const(2)
	s := b.Add(c1, c2)
	b.Ret(s)
	f.Finish()
	return f
}

// buildDiamond builds an if/else diamond returning a phi.
func buildDiamond() *Func {
	f := NewFunc("diamond", 1)
	b := NewBuilder(f)
	p := b.Param(0, Int)
	zero := b.Const(0)
	cond := b.Cmp(CmpGT, p, zero)
	then := b.NewBlock("then")
	els := b.NewBlock("else")
	join := b.NewBlock("join")
	b.CondBr(cond, then, els)
	b.SetBlock(then)
	v1 := b.Const(10)
	b.Br(join)
	b.SetBlock(els)
	v2 := b.Const(20)
	b.Br(join)
	b.SetBlock(join)
	m := b.Phi(Int, v1, v2)
	b.Ret(m)
	f.Finish()
	return f
}

// buildNestedLoops builds a doubly-nested counted loop.
func buildNestedLoops(n int64) *Func {
	f := NewFunc("nested", 0)
	b := NewBuilder(f)
	zero := b.Const(0)
	end := b.Const(n)
	one := b.Const(1)
	outer := b.Loop("outer", zero, end, one)
	inner := b.Loop("inner", zero, end, one)
	_ = b.Add(outer.IndVar, inner.IndVar)
	b.Close(inner)
	b.Close(outer)
	b.Ret(nil)
	f.Finish()
	return f
}

func TestVerifyAcceptsWellFormed(t *testing.T) {
	for _, f := range []*Func{buildStraightLine(), buildDiamond(), buildNestedLoops(3)} {
		if err := f.Verify(); err != nil {
			t.Errorf("%s: %v", f.Name, err)
		}
	}
}

func TestVerifyRejectsUnterminated(t *testing.T) {
	f := NewFunc("bad", 0)
	b := NewBuilder(f)
	b.Const(1)
	if err := f.Verify(); err == nil {
		t.Error("unterminated block accepted")
	}
}

func TestVerifyRejectsBadPhiArity(t *testing.T) {
	f := buildDiamond()
	// Find the phi and break its arity.
	for _, blk := range f.Blocks {
		for _, i := range blk.Instrs {
			if i.Op == OpPhi {
				i.Args = i.Args[:1]
			}
		}
	}
	if err := f.Verify(); err == nil {
		t.Error("bad phi arity accepted")
	}
}

func TestPredsAndSuccs(t *testing.T) {
	f := buildDiamond()
	join := f.Blocks[3]
	if join.Name != "join" {
		t.Fatalf("unexpected block layout: %s", join.Name)
	}
	if len(join.Preds) != 2 {
		t.Errorf("join has %d preds, want 2", len(join.Preds))
	}
	entry := f.Entry()
	if len(entry.Succs()) != 2 {
		t.Errorf("entry has %d succs, want 2", len(entry.Succs()))
	}
}

func TestDomTreeDiamond(t *testing.T) {
	f := buildDiamond()
	dt := BuildDomTree(f)
	entry, then, els, join := f.Blocks[0], f.Blocks[1], f.Blocks[2], f.Blocks[3]
	if dt.IDom(join) != entry {
		t.Errorf("idom(join) = %v, want entry", dt.IDom(join).Name)
	}
	if !dt.Dominates(entry, join) || !dt.Dominates(entry, then) {
		t.Error("entry should dominate all blocks")
	}
	if dt.Dominates(then, join) || dt.Dominates(els, join) {
		t.Error("branch arms must not dominate the join")
	}
	if !dt.Dominates(join, join) {
		t.Error("dominance must be reflexive")
	}
}

func TestInstrDominatesSameBlock(t *testing.T) {
	f := buildStraightLine()
	dt := BuildDomTree(f)
	b := f.Entry()
	first, second := b.Instrs[0], b.Instrs[1]
	if !dt.InstrDominates(first, second) {
		t.Error("earlier instruction should dominate later in same block")
	}
	if dt.InstrDominates(second, first) {
		t.Error("later instruction should not dominate earlier")
	}
}

func TestLoopForestSingleLoop(t *testing.T) {
	f := NewFunc("single", 0)
	b := NewBuilder(f)
	zero := b.Const(0)
	ten := b.Const(10)
	one := b.Const(1)
	l := b.Loop("l", zero, ten, one)
	b.Close(l)
	b.Ret(nil)
	f.Finish()
	lf, _ := BuildLoopForest(f)
	if len(lf.Top) != 1 {
		t.Fatalf("found %d top-level loops, want 1", len(lf.Top))
	}
	loop := lf.Top[0]
	if loop.Header != l.Header {
		t.Errorf("header = %s, want %s", loop.Header.Name, l.Header.Name)
	}
	if loop.Preheader == nil {
		t.Fatal("no preheader")
	}
	if loop.Depth != 1 {
		t.Errorf("depth = %d, want 1", loop.Depth)
	}
	if !loop.Blocks[l.Body] || !loop.Blocks[l.Latch] {
		t.Error("loop body/latch not in loop")
	}
	if loop.Blocks[l.Exit] {
		t.Error("exit block should not be in loop")
	}
}

func TestLoopForestNesting(t *testing.T) {
	f := buildNestedLoops(4)
	lf, _ := BuildLoopForest(f)
	if len(lf.Top) != 1 {
		t.Fatalf("top loops = %d, want 1", len(lf.Top))
	}
	outer := lf.Top[0]
	if len(outer.Children) != 1 {
		t.Fatalf("outer children = %d, want 1", len(outer.Children))
	}
	inner := outer.Children[0]
	if inner.Parent != outer {
		t.Error("inner.Parent != outer")
	}
	if inner.Depth != 2 {
		t.Errorf("inner depth = %d, want 2", inner.Depth)
	}
	// Innermost table: inner body maps to inner loop, outer latch to outer.
	if got := lf.InnermostContaining(inner.Header); got != inner {
		t.Error("InnermostContaining(inner header) != inner")
	}
	for _, lat := range outer.Latches {
		if got := lf.InnermostContaining(lat); got != outer {
			t.Errorf("InnermostContaining(outer latch) = %v", got)
		}
	}
}

func TestPreheaderCreatedWhenMissing(t *testing.T) {
	// Hand-build a loop whose header has two outside predecessors.
	f := NewFunc("rough", 1)
	b := NewBuilder(f)
	p := b.Param(0, Int)
	zero := b.Const(0)
	cond := b.Cmp(CmpGT, p, zero)
	pre1 := b.NewBlock("pre1")
	pre2 := b.NewBlock("pre2")
	header := b.NewBlock("header")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.CondBr(cond, pre1, pre2)
	b.SetBlock(pre1)
	b.Br(header)
	b.SetBlock(pre2)
	b.Br(header)
	b.SetBlock(header)
	c2 := b.Cmp(CmpLT, zero, p)
	b.CondBr(c2, body, exit)
	b.SetBlock(body)
	b.Br(header)
	b.SetBlock(exit)
	b.Ret(nil)
	f.Finish()
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}

	lf, dt := BuildLoopForest(f)
	if len(lf.Top) != 1 {
		t.Fatalf("top loops = %d, want 1", len(lf.Top))
	}
	l := lf.Top[0]
	if l.Preheader == nil {
		t.Fatal("no preheader created")
	}
	if l.Blocks[l.Preheader] {
		t.Error("preheader must be outside the loop")
	}
	// The preheader must dominate the header.
	if !dt.Dominates(l.Preheader, l.Header) {
		t.Error("preheader does not dominate header")
	}
	// The split CFG must still verify.
	if err := f.Verify(); err != nil {
		t.Errorf("CFG broken after preheader split: %v", err)
	}
}

func TestLivenessStraightLine(t *testing.T) {
	f := buildStraightLine()
	lv := BuildLiveness(f)
	// Nothing live into or out of the single block.
	if len(lv.LiveIn[0]) != 0 || len(lv.LiveOut[0]) != 0 {
		t.Errorf("live sets nonempty: in=%v out=%v", lv.LiveIn[0], lv.LiveOut[0])
	}
}

func TestLivenessAcrossLoop(t *testing.T) {
	f := NewFunc("live", 0)
	b := NewBuilder(f)
	base := b.Alloc(b.Const(64))
	zero := b.Const(0)
	ten := b.Const(10)
	one := b.Const(1)
	l := b.Loop("l", zero, ten, one)
	// Use base inside the loop: it must be live through header and body.
	addr := b.GEP(base, l.IndVar)
	b.Store(addr, l.IndVar)
	b.Close(l)
	b.Ret(nil)
	f.Finish()
	lv := BuildLiveness(f)
	if !lv.LiveIn[l.Body.Index][base.ID] {
		t.Error("alloc result not live into loop body")
	}
	if !lv.LiveOut[l.Header.Index][base.ID] {
		t.Error("alloc result not live out of loop header")
	}
	if lv.LiveIn[l.Exit.Index][base.ID] {
		t.Error("alloc result live into exit despite no use after loop")
	}
}

func TestLivenessPhiUseAtPredecessor(t *testing.T) {
	f := buildDiamond()
	lv := BuildLiveness(f)
	then, els := f.Blocks[1], f.Blocks[2]
	// v1 defined in then, used by the join phi: live out of then only.
	var v1 *Instr
	for _, i := range then.Instrs {
		if i.Op == OpConst {
			v1 = i
		}
	}
	if !lv.LiveOut[then.Index][v1.ID] {
		t.Error("phi operand not live out of its predecessor")
	}
	if lv.LiveOut[els.Index][v1.ID] {
		t.Error("phi operand live out of the wrong predecessor")
	}
}

func TestInsertRemove(t *testing.T) {
	f := buildStraightLine()
	b := f.Entry()
	n0 := len(b.Instrs)
	extra := f.newInstr(OpConst)
	extra.Const = 99
	b.InsertBefore(extra, b.Instrs[1])
	if b.Instrs[1] != extra || len(b.Instrs) != n0+1 {
		t.Fatal("InsertBefore misplaced")
	}
	after := f.newInstr(OpConst)
	b.InsertAfter(after, extra)
	if b.Instrs[2] != after {
		t.Fatal("InsertAfter misplaced")
	}
	b.Remove(extra)
	b.Remove(after)
	if len(b.Instrs) != n0 {
		t.Fatalf("Remove left %d instrs, want %d", len(b.Instrs), n0)
	}
}

func TestModuleLookupAndCount(t *testing.T) {
	m := &Module{Funcs: []*Func{buildStraightLine(), buildDiamond()}}
	if m.Lookup("diamond") == nil || m.Lookup("nope") != nil {
		t.Error("Lookup misbehaved")
	}
	if m.NumInstrs() < 8 {
		t.Errorf("NumInstrs = %d, suspiciously small", m.NumInstrs())
	}
	if err := m.Verify(); err != nil {
		t.Error(err)
	}
}

func TestStringOutput(t *testing.T) {
	f := buildDiamond()
	s := f.String()
	for _, want := range []string{"func diamond", "entry:", "phi", "condbr", "ret"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestLoopBuilderSemantics(t *testing.T) {
	// The counted-loop skeleton must have phi args aligned with preds:
	// preds[0] = preheader (start value), preds[1] = latch (incremented).
	f := NewFunc("loopsem", 0)
	b := NewBuilder(f)
	zero := b.Const(0)
	three := b.Const(3)
	one := b.Const(1)
	l := b.Loop("l", zero, three, one)
	b.Close(l)
	b.Ret(nil)
	f.Finish()
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	iv := l.Header.Instrs[0]
	if iv.Op != OpPhi {
		t.Fatal("first header instr is not the induction phi")
	}
	for k, p := range l.Header.Preds {
		arg := iv.Args[k]
		if p == l.Latch && arg.Op != OpBin {
			t.Errorf("latch incoming arg is %v, want increment", arg)
		}
		if p != l.Latch && arg != zero {
			t.Errorf("preheader incoming arg is %v, want start const", arg)
		}
	}
}
