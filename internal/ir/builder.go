package ir

// Builder provides a fluent construction API for IR functions, used by the
// workload models and tests. It appends instructions at the end of a
// current block.
type Builder struct {
	Fn  *Func
	cur *Block
}

// NewBuilder returns a builder positioned at the function's entry block.
func NewBuilder(f *Func) *Builder {
	return &Builder{Fn: f, cur: f.Entry()}
}

// SetBlock moves the insertion point to the end of b.
func (bu *Builder) SetBlock(b *Block) { bu.cur = b }

// NewBlock creates a block and returns it without changing the insertion
// point.
func (bu *Builder) NewBlock(name string) *Block { return bu.Fn.NewBlock(name) }

// Const materializes the integer constant c.
func (bu *Builder) Const(c int64) *Instr {
	i := bu.Fn.newInstr(OpConst)
	i.Const = c
	return bu.cur.append(i)
}

// Param reads parameter n with type ty.
func (bu *Builder) Param(n int, ty Type) *Instr {
	i := bu.Fn.newInstr(OpParam)
	i.Const = int64(n)
	i.Ty = ty
	if n < len(bu.Fn.ParamTypes) {
		bu.Fn.ParamTypes[n] = ty
	}
	return bu.cur.append(i)
}

// Bin emits a binary ALU operation.
func (bu *Builder) Bin(op int, a, b *Instr) *Instr {
	i := bu.Fn.newInstr(OpBin)
	i.Sub = op
	i.Args = []*Instr{a, b}
	return bu.cur.append(i)
}

// Add emits a + b.
func (bu *Builder) Add(a, b *Instr) *Instr { return bu.Bin(BinAdd, a, b) }

// Sub emits a - b.
func (bu *Builder) Sub(a, b *Instr) *Instr { return bu.Bin(BinSub, a, b) }

// Mul emits a * b.
func (bu *Builder) Mul(a, b *Instr) *Instr { return bu.Bin(BinMul, a, b) }

// Cmp emits a comparison producing 0 or 1.
func (bu *Builder) Cmp(pred int, a, b *Instr) *Instr {
	i := bu.Fn.newInstr(OpCmp)
	i.Sub = pred
	i.Args = []*Instr{a, b}
	return bu.cur.append(i)
}

// Phi emits a phi node. Incoming values must be supplied in the order of
// the block's final predecessor list (fix up with SetPhiArgs if preds are
// wired later).
func (bu *Builder) Phi(ty Type, args ...*Instr) *Instr {
	i := bu.Fn.newInstr(OpPhi)
	i.Ty = ty
	i.Args = args
	return bu.cur.append(i)
}

// GEP displaces pointer base by off bytes.
func (bu *Builder) GEP(base, off *Instr) *Instr {
	i := bu.Fn.newInstr(OpGEP)
	i.Ty = Ptr
	i.Args = []*Instr{base, off}
	return bu.cur.append(i)
}

// Load reads a value of type ty from addr.
func (bu *Builder) Load(addr *Instr, ty Type) *Instr {
	i := bu.Fn.newInstr(OpLoad)
	i.Ty = ty
	i.Args = []*Instr{addr}
	return bu.cur.append(i)
}

// Store writes val to addr.
func (bu *Builder) Store(addr, val *Instr) *Instr {
	i := bu.Fn.newInstr(OpStore)
	i.Args = []*Instr{addr, val}
	return bu.cur.append(i)
}

// Alloc emits a heap allocation of size bytes.
func (bu *Builder) Alloc(size *Instr) *Instr {
	i := bu.Fn.newInstr(OpAlloc)
	i.Ty = Ptr
	i.Args = []*Instr{size}
	return bu.cur.append(i)
}

// Free emits a heap free of ptr.
func (bu *Builder) Free(ptr *Instr) *Instr {
	i := bu.Fn.newInstr(OpFree)
	i.Args = []*Instr{ptr}
	return bu.cur.append(i)
}

// Call emits a call to callee. ty is the result type.
func (bu *Builder) Call(callee string, ty Type, args ...*Instr) *Instr {
	i := bu.Fn.newInstr(OpCall)
	i.Callee = callee
	i.Ty = ty
	i.Args = args
	return bu.cur.append(i)
}

// Ret emits a return. val may be nil for a void return.
func (bu *Builder) Ret(val *Instr) *Instr {
	i := bu.Fn.newInstr(OpRet)
	if val != nil {
		i.Args = []*Instr{val}
	}
	return bu.cur.append(i)
}

// Br emits an unconditional branch.
func (bu *Builder) Br(target *Block) *Instr {
	i := bu.Fn.newInstr(OpBr)
	i.Targets = []*Block{target}
	return bu.cur.append(i)
}

// CondBr branches to then if cond != 0, else to els.
func (bu *Builder) CondBr(cond *Instr, then, els *Block) *Instr {
	i := bu.Fn.newInstr(OpCondBr)
	i.Args = []*Instr{cond}
	i.Targets = []*Block{then, els}
	return bu.cur.append(i)
}

// CountedLoop emits the canonical loop skeleton
//
//	preheader: br header
//	header:    i = phi [start, latchI] ; cond = i < end ; condbr body, exit
//	body:      ... (builder positioned here; body must Br to latch)
//	latch:     latchI = i + step ; br header
//	exit:      (returned)
//
// It returns the induction variable, the latch block, and the exit block.
// The caller emits the body at the current insertion point and must call
// CloseLoop(latch) when done.
type CountedLoop struct {
	IndVar *Instr
	Header *Block
	Body   *Block
	Latch  *Block
	Exit   *Block
	incr   *Instr
}

// Loop starts a counted loop from start to end (exclusive) with the given
// step. The builder is left positioned in the body block.
func (bu *Builder) Loop(name string, start, end, step *Instr) *CountedLoop {
	header := bu.NewBlock(name + ".header")
	body := bu.NewBlock(name + ".body")
	latch := bu.NewBlock(name + ".latch")
	exit := bu.NewBlock(name + ".exit")

	// Current block becomes the preheader.
	bu.Br(header)

	bu.SetBlock(header)
	iv := bu.Phi(Int, start, nil) // second arg patched below
	cond := bu.Cmp(CmpLT, iv, end)
	bu.CondBr(cond, body, exit)

	bu.SetBlock(latch)
	incr := bu.Add(iv, step)
	bu.Br(header)
	iv.Args[1] = incr

	bu.SetBlock(body)
	return &CountedLoop{IndVar: iv, Header: header, Body: body, Latch: latch, Exit: exit, incr: incr}
}

// Close terminates the loop body by branching to the latch and positions
// the builder at the loop exit.
func (bu *Builder) Close(l *CountedLoop) {
	bu.Br(l.Latch)
	bu.SetBlock(l.Exit)
}
