package ir

// This file implements the analyses Algorithm 1 consumes: dominator trees
// (Cooper–Harvey–Kennedy iterative algorithm), the natural-loop forest
// with preheaders (LLVM's canonical loop form, which the paper's pass
// requires via -loop-simplify), and per-block liveness for release
// insertion and pin-slot interference.

// DomTree is a dominator tree over a function's blocks.
type DomTree struct {
	fn *Func
	// idom[b.Index] is the immediate dominator; entry's idom is itself.
	idom []int
	// rpo order and positions for intersection.
	rpoPos []int
	// children of each block in the tree.
	children [][]int
}

// BuildDomTree computes the dominator tree. The function's CFG state must
// be current (call Finish after mutation).
func BuildDomTree(f *Func) *DomTree {
	f.Finish()
	n := len(f.Blocks)
	// Reverse postorder.
	visited := make([]bool, n)
	var order []int
	var dfs func(b *Block)
	dfs = func(b *Block) {
		visited[b.Index] = true
		for _, s := range b.Succs() {
			if !visited[s.Index] {
				dfs(s)
			}
		}
		order = append(order, b.Index)
	}
	dfs(f.Blocks[0])
	// order is postorder; reverse it.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	rpoPos := make([]int, n)
	for i := range rpoPos {
		rpoPos[i] = -1
	}
	for pos, b := range order {
		rpoPos[b] = pos
	}

	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[0] = 0

	intersect := func(a, b int) int {
		for a != b {
			for rpoPos[a] > rpoPos[b] {
				a = idom[a]
			}
			for rpoPos[b] > rpoPos[a] {
				b = idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, bi := range order {
			if bi == 0 {
				continue
			}
			b := f.Blocks[bi]
			newIdom := -1
			for _, p := range b.Preds {
				pi := p.Index
				if rpoPos[pi] < 0 || idom[pi] < 0 {
					continue // unreachable or unprocessed predecessor
				}
				if newIdom < 0 {
					newIdom = pi
				} else {
					newIdom = intersect(pi, newIdom)
				}
			}
			if newIdom >= 0 && idom[bi] != newIdom {
				idom[bi] = newIdom
				changed = true
			}
		}
	}

	dt := &DomTree{fn: f, idom: idom, rpoPos: rpoPos, children: make([][]int, n)}
	for bi := 1; bi < n; bi++ {
		if idom[bi] >= 0 {
			dt.children[idom[bi]] = append(dt.children[idom[bi]], bi)
		}
	}
	return dt
}

// IDom returns the immediate dominator of b (b itself for the entry), or
// nil if b is unreachable.
func (dt *DomTree) IDom(b *Block) *Block {
	if dt.idom[b.Index] < 0 {
		return nil
	}
	return dt.fn.Blocks[dt.idom[b.Index]]
}

// Dominates reports whether a dominates b (reflexively).
func (dt *DomTree) Dominates(a, b *Block) bool {
	if dt.rpoPos[b.Index] < 0 {
		return false // unreachable
	}
	x := b.Index
	for {
		if x == a.Index {
			return true
		}
		if x == 0 {
			return false
		}
		nx := dt.idom[x]
		if nx < 0 || nx == x {
			return x == a.Index
		}
		x = nx
	}
}

// InstrDominates reports whether instruction a dominates instruction b:
// either a's block strictly dominates b's, or they share a block and a
// appears first. An instruction does not dominate itself here.
func (dt *DomTree) InstrDominates(a, b *Instr) bool {
	if a.Block == b.Block {
		for _, i := range a.Block.Instrs {
			if i == a {
				return true
			}
			if i == b {
				return false
			}
		}
		return false
	}
	return dt.Dominates(a.Block, b.Block)
}

// Loop is a natural loop.
type Loop struct {
	Header *Block
	// Blocks contains all blocks in the loop, including the header.
	Blocks map[*Block]bool
	// Parent is the immediately enclosing loop, or nil.
	Parent *Loop
	// Children are the directly nested loops.
	Children []*Loop
	// Preheader is the unique out-of-loop predecessor of the header. The
	// forest builder guarantees it exists (creating one if needed), which
	// is the property -loop-simplify provides to the paper's pass.
	Preheader *Block
	// Latches are in-loop predecessors of the header (back-edge sources).
	Latches []*Block
	// Depth is the nesting depth (outermost = 1).
	Depth int
}

// ContainsInstr reports whether the loop body contains instruction i.
func (l *Loop) ContainsInstr(i *Instr) bool { return i.Block != nil && l.Blocks[i.Block] }

// LoopForest is the loop nesting forest of a function.
type LoopForest struct {
	// Top holds the outermost loops.
	Top []*Loop
	// ByHeader maps header blocks to their loops.
	ByHeader map[*Block]*Loop
	// innermost[b.Index] is the innermost loop containing the block.
	innermost []*Loop
}

// InnermostContaining returns the innermost loop containing b, or nil.
func (lf *LoopForest) InnermostContaining(b *Block) *Loop {
	if b == nil || b.Index >= len(lf.innermost) {
		return nil
	}
	return lf.innermost[b.Index]
}

// BuildLoopForest identifies natural loops from back edges (edges whose
// target dominates their source), nests them, and ensures every loop has a
// dedicated preheader, splitting the header's out-of-loop edges through a
// fresh block when necessary. Because preheader creation mutates the CFG,
// the caller's dominator tree is invalidated; BuildLoopForest returns a
// fresh one.
func BuildLoopForest(f *Func) (*LoopForest, *DomTree) {
	dt := BuildDomTree(f)

	// Collect back edges and loop bodies.
	var loops []*Loop
	byHeader := make(map[*Block]*Loop)
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			if dt.Dominates(s, b) {
				// b -> s is a back edge; s is a header.
				l := byHeader[s]
				if l == nil {
					l = &Loop{Header: s, Blocks: map[*Block]bool{s: true}}
					byHeader[s] = l
					loops = append(loops, l)
				}
				l.Latches = append(l.Latches, b)
				// Natural loop body: all blocks that reach the latch
				// without passing through the header.
				var stack []*Block
				if !l.Blocks[b] {
					l.Blocks[b] = true
					stack = append(stack, b)
				}
				for len(stack) > 0 {
					x := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					for _, p := range x.Preds {
						if !l.Blocks[p] {
							l.Blocks[p] = true
							stack = append(stack, p)
						}
					}
				}
			}
		}
	}

	// Nest loops: parent = smallest strictly-containing loop.
	for _, l := range loops {
		var parent *Loop
		for _, m := range loops {
			if m == l || !m.Blocks[l.Header] {
				continue
			}
			if parent == nil || len(m.Blocks) < len(parent.Blocks) {
				parent = m
			}
		}
		l.Parent = parent
	}
	lf := &LoopForest{ByHeader: byHeader}
	for _, l := range loops {
		if l.Parent == nil {
			lf.Top = append(lf.Top, l)
		} else {
			l.Parent.Children = append(l.Parent.Children, l)
		}
	}
	var setDepth func(l *Loop, d int)
	setDepth = func(l *Loop, d int) {
		l.Depth = d
		for _, c := range l.Children {
			setDepth(c, d+1)
		}
	}
	for _, l := range lf.Top {
		setDepth(l, 1)
	}

	// Ensure preheaders (canonical loop form).
	changed := false
	for _, l := range loops {
		var outside []*Block
		for _, p := range l.Header.Preds {
			if !l.Blocks[p] {
				outside = append(outside, p)
			}
		}
		if len(outside) == 1 && len(outside[0].Succs()) == 1 {
			l.Preheader = outside[0]
			continue
		}
		// Split: create a preheader all outside edges route through.
		ph := f.NewBlock(l.Header.Name + ".preheader")
		br := f.newInstr(OpBr)
		br.Targets = []*Block{l.Header}
		ph.append(br)
		for _, p := range outside {
			t := p.Term()
			for ti, tgt := range t.Targets {
				if tgt == l.Header {
					t.Targets[ti] = ph
				}
			}
		}
		// Phi nodes in the header need no rewrite in this IR: the header's
		// predecessor order changes, so rebuild phi argument alignment by
		// remembering the old mapping.
		remapPhis(l.Header, outside, ph)
		l.Preheader = ph
		changed = true
	}
	if changed {
		f.Finish()
		dt = BuildDomTree(f)
	}

	// innermost-loop table.
	lf.innermost = make([]*Loop, len(f.Blocks))
	var mark func(l *Loop)
	mark = func(l *Loop) {
		for b := range l.Blocks {
			cur := lf.innermost[b.Index]
			if cur == nil || len(l.Blocks) < len(cur.Blocks) {
				lf.innermost[b.Index] = l
			}
		}
		for _, c := range l.Children {
			mark(c)
		}
	}
	for _, l := range lf.Top {
		mark(l)
	}
	return lf, dt
}

// remapPhis fixes the header's phi argument order after its out-of-loop
// predecessors are replaced by a single preheader block. Phi arguments
// from the removed predecessors must collapse to one argument; this IR
// only supports that when all outside predecessors supplied the same
// value, which holds for builder-generated CFGs (a single preheader
// already existed or there is a unique incoming value).
func remapPhis(header *Block, outside []*Block, ph *Block) {
	oldPreds := append([]*Block(nil), header.Preds...)
	for _, i := range header.Instrs {
		if i.Op != OpPhi {
			break
		}
		newArgs := make([]*Instr, 0, len(oldPreds))
		var outsideVal *Instr
		insideArgs := make(map[*Block]*Instr)
		for k, p := range oldPreds {
			isOutside := false
			for _, o := range outside {
				if p == o {
					isOutside = true
					break
				}
			}
			if isOutside {
				outsideVal = i.Args[k]
			} else {
				insideArgs[p] = i.Args[k]
			}
		}
		// New predecessor order after Finish: recompute lazily — here we
		// order as (existing inside preds in original order, then ph).
		for _, p := range oldPreds {
			if v, ok := insideArgs[p]; ok {
				newArgs = append(newArgs, v)
			}
		}
		newArgs = append(newArgs, outsideVal)
		i.Args = newArgs
	}
	_ = ph
}

// Liveness holds per-block live-in/live-out sets of instruction IDs.
type Liveness struct {
	LiveIn  []map[int]bool
	LiveOut []map[int]bool
}

// BuildLiveness computes backward liveness over instruction values. Phi
// uses are attributed to the corresponding predecessor's live-out, per the
// usual SSA convention.
func BuildLiveness(f *Func) *Liveness {
	f.Finish()
	n := len(f.Blocks)
	lv := &Liveness{
		LiveIn:  make([]map[int]bool, n),
		LiveOut: make([]map[int]bool, n),
	}
	for i := 0; i < n; i++ {
		lv.LiveIn[i] = make(map[int]bool)
		lv.LiveOut[i] = make(map[int]bool)
	}
	// use[b], def[b]: upward-exposed uses and definitions. Phi args are
	// treated as used at the end of the predecessor.
	use := make([]map[int]bool, n)
	def := make([]map[int]bool, n)
	phiUse := make([]map[int]bool, n) // keyed by predecessor index
	for i := 0; i < n; i++ {
		use[i] = make(map[int]bool)
		def[i] = make(map[int]bool)
		phiUse[i] = make(map[int]bool)
	}
	for _, b := range f.Blocks {
		for _, i := range b.Instrs {
			if i.Op == OpPhi {
				for k, a := range i.Args {
					if k < len(b.Preds) {
						phiUse[b.Preds[k].Index][a.ID] = true
					}
				}
				def[b.Index][i.ID] = true
				continue
			}
			for _, a := range i.Args {
				if !def[b.Index][a.ID] {
					use[b.Index][a.ID] = true
				}
			}
			def[b.Index][i.ID] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for bi := n - 1; bi >= 0; bi-- {
			b := f.Blocks[bi]
			out := make(map[int]bool)
			for _, s := range b.Succs() {
				for v := range lv.LiveIn[s.Index] {
					out[v] = true
				}
			}
			for v := range phiUse[bi] {
				out[v] = true
			}
			in := make(map[int]bool)
			for v := range out {
				if !def[bi][v] {
					in[v] = true
				}
			}
			for v := range use[bi] {
				in[v] = true
			}
			if !sameSet(out, lv.LiveOut[bi]) || !sameSet(in, lv.LiveIn[bi]) {
				lv.LiveOut[bi] = out
				lv.LiveIn[bi] = in
				changed = true
			}
		}
	}
	return lv
}

func sameSet(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
