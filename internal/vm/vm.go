// Package vm executes IR programs against either a plain allocator (the
// baseline) or the Alaska runtime (after the compiler transformation),
// counting simulated CPU cycles per instruction.
//
// The paper measures wall-clock overhead on an EPYC testbed; this
// reproduction measures cycle-count overhead under an explicit cost model.
// What carries over is the *structure* of the result: overhead is the
// number and placement of dynamic translations, pin-set stores, and
// safepoint polls relative to the work the program does — exactly what
// the interpreter counts. The translation costs follow Figure 5: a
// not-a-handle check costs two instructions (cmp + branch), a full
// translation six (check, shift, truncate, HTE load, add), plus one store
// to the stack pin set when tracking is enabled.
package vm

import (
	"fmt"

	"alaska/internal/handle"
	"alaska/internal/ir"
	"alaska/internal/mallocsim"
	"alaska/internal/mem"
	"alaska/internal/rt"
)

// CostModel assigns cycle costs to dynamic events.
type CostModel struct {
	Simple       int64 // ALU op, compare, GEP
	Load         int64 // memory load (L1-hit scale)
	Store        int64 // memory store
	Branch       int64 // taken/untaken branch
	CallOverhead int64 // call + return bookkeeping
	AllocCost    int64 // allocator fast path
	FreeCost     int64
	// TransPointer is the cost when the checked value is a raw pointer:
	// the cmp + branch of Figure 5.
	TransPointer int64
	// TransHandle is the full handle path of Figure 5: check, extract,
	// truncate, HTE load, add.
	TransHandle int64
	// PinStore is the store of the handle into the stack pin set.
	PinStore int64
	// Poll is the cost of one safepoint poll. The paper's polls are NOPs
	// that should be free, but §5.4 attributes residual tracking overhead
	// (nab, xz) to LLVM StackMaps backend effects; workloads model that
	// with a nonzero per-poll cost.
	Poll int64
	// FaultCheck is the extra per-translation cost of the optional
	// handle-fault ("swapping") check of §7.
	FaultCheck int64
}

// DefaultCosts is the cost model used throughout the evaluation.
var DefaultCosts = CostModel{
	Simple:       1,
	Load:         4,
	Store:        2,
	Branch:       1,
	CallOverhead: 8,
	AllocCost:    40,
	FreeCost:     24,
	TransPointer: 2,
	TransHandle:  8,
	PinStore:     1,
	Poll:         0,
	FaultCheck:   0,
}

// External is a host function callable from IR programs. Arguments arrive
// raw (escape handling has already translated pointer args).
type External func(m *Machine, args []uint64) (uint64, error)

// Machine interprets one module. It runs either in baseline mode (Malloc
// set) or Alaska mode (Runtime/Thread set) depending on how it was built.
type Machine struct {
	Space  *mem.Space
	Module *ir.Module
	Costs  CostModel

	// Baseline mode.
	Malloc *mallocsim.Allocator

	// Alaska mode.
	Runtime *rt.Runtime
	Thread  *rt.Thread

	// Cycles is the accumulated simulated cycle count.
	Cycles int64
	// DynInstrs counts interpreted instructions.
	DynInstrs int64
	// MaxSteps guards against runaway programs (0 = default limit).
	MaxSteps int64

	externals map[string]External
}

// NewBaseline builds a machine that runs the (untransformed) module with a
// conventional allocator and raw pointers.
func NewBaseline(m *ir.Module, costs CostModel) *Machine {
	space := mem.NewSpace()
	return &Machine{
		Space:     space,
		Module:    m,
		Costs:     costs,
		Malloc:    mallocsim.New(space),
		externals: builtinExternals(),
	}
}

// NewAlaska builds a machine that runs the (transformed) module against an
// Alaska runtime backed by the malloc service — the §5.4 overhead
// configuration.
func NewAlaska(m *ir.Module, costs CostModel) (*Machine, error) {
	space := mem.NewSpace()
	r, err := rt.New(space, mallocsim.NewService(space))
	if err != nil {
		return nil, err
	}
	return &Machine{
		Space:     space,
		Module:    m,
		Costs:     costs,
		Runtime:   r,
		Thread:    r.NewThread(),
		externals: builtinExternals(),
	}, nil
}

// Run executes the named function with the given arguments and returns its
// result.
func (m *Machine) Run(fnName string, args ...uint64) (uint64, error) {
	f := m.Module.Lookup(fnName)
	if f == nil {
		return 0, fmt.Errorf("vm: no function %q", fnName)
	}
	limit := m.MaxSteps
	if limit == 0 {
		limit = 2_000_000_000
	}
	st := &state{m: m, limit: limit}
	v, err := st.call(f, args)
	if err != nil {
		return 0, fmt.Errorf("vm: %s: %w", fnName, err)
	}
	return v, nil
}

// state is the per-run interpreter state.
type state struct {
	m     *Machine
	limit int64
	depth int
}

const maxDepth = 256

// call interprets one function invocation.
func (st *state) call(f *ir.Func, args []uint64) (uint64, error) {
	m := st.m
	st.depth++
	if st.depth > maxDepth {
		return 0, fmt.Errorf("call depth exceeded")
	}
	defer func() { st.depth-- }()

	m.Cycles += m.Costs.CallOverhead
	regs := make([]uint64, f.NumValues())

	// Push this invocation's pin set (free at runtime: a stack array).
	tracked := m.Thread != nil && f.PinSetSize > 0
	if tracked {
		m.Thread.PushFrame(f.PinSetSize)
		defer m.Thread.PopFrame()
	}

	blk := f.Entry()
	var prev *ir.Block
	for {
		// Resolve phis first (all at block head, in parallel).
		if prev != nil {
			predIdx := -1
			for k, p := range blk.Preds {
				if p == prev {
					predIdx = k
					break
				}
			}
			var phiVals []uint64
			var phis []*ir.Instr
			for _, i := range blk.Instrs {
				if i.Op != ir.OpPhi {
					break
				}
				if predIdx < 0 || predIdx >= len(i.Args) {
					return 0, fmt.Errorf("phi in %s has no incoming for pred", blk.Name)
				}
				phis = append(phis, i)
				phiVals = append(phiVals, regs[i.Args[predIdx].ID])
			}
			for k, i := range phis {
				regs[i.ID] = phiVals[k]
			}
		}

		for _, i := range blk.Instrs {
			if i.Op == ir.OpPhi {
				continue
			}
			m.DynInstrs++
			if m.DynInstrs > st.limit {
				return 0, fmt.Errorf("step limit exceeded (%d)", st.limit)
			}
			switch i.Op {
			case ir.OpConst:
				regs[i.ID] = uint64(i.Const)
				m.Cycles += m.Costs.Simple
			case ir.OpParam:
				n := int(i.Const)
				if n >= len(args) {
					return 0, fmt.Errorf("param %d of %d", n, len(args))
				}
				regs[i.ID] = args[n]
			case ir.OpBin:
				a, b := regs[i.Args[0].ID], regs[i.Args[1].ID]
				v, err := evalBin(i.Sub, a, b)
				if err != nil {
					return 0, err
				}
				regs[i.ID] = v
				m.Cycles += m.Costs.Simple
			case ir.OpCmp:
				a, b := int64(regs[i.Args[0].ID]), int64(regs[i.Args[1].ID])
				regs[i.ID] = boolToU64(evalCmp(i.Sub, a, b))
				m.Cycles += m.Costs.Simple
			case ir.OpGEP:
				base := regs[i.Args[0].ID]
				off := int64(regs[i.Args[1].ID])
				h := handle.Handle(base)
				if h.IsHandle() {
					regs[i.ID] = uint64(h.Add(off))
				} else {
					regs[i.ID] = uint64(int64(base) + off)
				}
				m.Cycles += m.Costs.Simple
			case ir.OpLoad:
				addr := regs[i.Args[0].ID]
				v, err := m.loadWord(addr)
				if err != nil {
					return 0, err
				}
				regs[i.ID] = v
				m.Cycles += m.Costs.Load
			case ir.OpStore:
				addr := regs[i.Args[0].ID]
				if err := m.storeWord(addr, regs[i.Args[1].ID]); err != nil {
					return 0, err
				}
				m.Cycles += m.Costs.Store
			case ir.OpAlloc:
				size := regs[i.Args[0].ID]
				v, err := m.alloc(i.Sub == 1, size)
				if err != nil {
					return 0, err
				}
				regs[i.ID] = v
				m.Cycles += m.Costs.AllocCost
			case ir.OpFree:
				if err := m.free(i.Sub == 1, regs[i.Args[0].ID]); err != nil {
					return 0, err
				}
				m.Cycles += m.Costs.FreeCost
			case ir.OpTranslate:
				v, err := m.translate(regs[i.Args[0].ID], i.Slot)
				if err != nil {
					return 0, err
				}
				regs[i.ID] = v
			case ir.OpSafepoint:
				if m.Thread != nil {
					m.Thread.Safepoint()
				}
				m.Cycles += m.Costs.Poll
			case ir.OpCall:
				v, err := st.dispatchCall(i, regs)
				if err != nil {
					return 0, err
				}
				regs[i.ID] = v
			case ir.OpRet:
				m.Cycles += m.Costs.Branch
				if len(i.Args) > 0 {
					return regs[i.Args[0].ID], nil
				}
				return 0, nil
			case ir.OpBr:
				m.Cycles += m.Costs.Branch
				prev, blk = blk, i.Targets[0]
			case ir.OpCondBr:
				m.Cycles += m.Costs.Branch
				if regs[i.Args[0].ID] != 0 {
					prev, blk = blk, i.Targets[0]
				} else {
					prev, blk = blk, i.Targets[1]
				}
			case ir.OpRelease:
				// Removed by the compiler; a no-op if present (tests).
			default:
				return 0, fmt.Errorf("unknown op %v", i.Op)
			}
			if i.Op == ir.OpBr || i.Op == ir.OpCondBr {
				break
			}
		}
	}
}

// dispatchCall handles OpCall for both internal and external callees.
func (st *state) dispatchCall(i *ir.Instr, regs []uint64) (uint64, error) {
	m := st.m
	callArgs := make([]uint64, len(i.Args))
	for k, a := range i.Args {
		callArgs[k] = regs[a.ID]
	}
	m.Cycles += m.Costs.CallOverhead
	if callee := m.Module.Lookup(i.Callee); callee != nil {
		return st.call(callee, callArgs)
	}
	ext := m.externals[i.Callee]
	if ext == nil {
		return 0, fmt.Errorf("call to unknown external %q", i.Callee)
	}
	if m.Thread != nil {
		m.Thread.EnterExternal()
		defer m.Thread.ExitExternal()
	}
	return ext(m, callArgs)
}

// translate implements OpTranslate with Figure 5's cost split.
func (m *Machine) translate(v uint64, slot int) (uint64, error) {
	h := handle.Handle(v)
	m.Cycles += m.Costs.FaultCheck
	if !h.IsHandle() {
		m.Cycles += m.Costs.TransPointer
		return v, nil
	}
	m.Cycles += m.Costs.TransHandle
	if m.Thread == nil {
		return 0, fmt.Errorf("translate of handle %v outside Alaska mode", h)
	}
	if slot >= 0 {
		m.Cycles += m.Costs.PinStore
		a, err := m.Thread.TranslateAndPin(h, slot)
		return uint64(a), err
	}
	a, err := m.Thread.Translate(h)
	return uint64(a), err
}

// loadWord reads 8 bytes at addr; untranslated handles fault naturally
// (the address has the top bit set and is unmapped — footnote 5).
func (m *Machine) loadWord(addr uint64) (uint64, error) {
	return m.Space.ReadU64(mem.Addr(addr))
}

func (m *Machine) storeWord(addr, v uint64) error {
	return m.Space.WriteU64(mem.Addr(addr), v)
}

// alloc dispatches to halloc or malloc per the instruction's mode bit.
func (m *Machine) alloc(handleMode bool, size uint64) (uint64, error) {
	if handleMode {
		if m.Runtime == nil {
			return 0, fmt.Errorf("halloc in baseline machine")
		}
		h, err := m.Runtime.Halloc(size)
		return uint64(h), err
	}
	if m.Malloc == nil {
		return 0, fmt.Errorf("malloc in Alaska machine (module not transformed?)")
	}
	a, err := m.Malloc.Alloc(size)
	return uint64(a), err
}

func (m *Machine) free(handleMode bool, v uint64) error {
	if handleMode {
		if m.Runtime == nil {
			return fmt.Errorf("hfree in baseline machine")
		}
		return m.Runtime.Hfree(handle.Handle(v))
	}
	if m.Malloc == nil {
		return fmt.Errorf("free in Alaska machine")
	}
	return m.Malloc.Free(mem.Addr(v))
}

// Close releases runtime resources.
func (m *Machine) Close() error {
	if m.Thread != nil {
		if err := m.Thread.Destroy(); err != nil {
			return err
		}
		m.Thread = nil
	}
	if m.Runtime != nil {
		return m.Runtime.Close()
	}
	return nil
}

func evalBin(sub int, a, b uint64) (uint64, error) {
	switch sub {
	case ir.BinAdd:
		return a + b, nil
	case ir.BinSub:
		return a - b, nil
	case ir.BinMul:
		return a * b, nil
	case ir.BinDiv:
		if b == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		return uint64(int64(a) / int64(b)), nil
	case ir.BinRem:
		if b == 0 {
			return 0, fmt.Errorf("remainder by zero")
		}
		return uint64(int64(a) % int64(b)), nil
	case ir.BinAnd:
		return a & b, nil
	case ir.BinOr:
		return a | b, nil
	case ir.BinXor:
		return a ^ b, nil
	case ir.BinShl:
		return a << (b & 63), nil
	case ir.BinShr:
		return a >> (b & 63), nil
	}
	return 0, fmt.Errorf("unknown binop %d", sub)
}

func evalCmp(sub int, a, b int64) bool {
	switch sub {
	case ir.CmpEQ:
		return a == b
	case ir.CmpNE:
		return a != b
	case ir.CmpLT:
		return a < b
	case ir.CmpLE:
		return a <= b
	case ir.CmpGT:
		return a > b
	case ir.CmpGE:
		return a >= b
	}
	return false
}

func boolToU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// builtinExternals returns the default host-function set used by the
// workload models to exercise escape handling.
func builtinExternals() map[string]External {
	return map[string]External{
		// ext_sink consumes a value; models write(2)-style syscall sinks.
		"ext_sink": func(m *Machine, args []uint64) (uint64, error) {
			m.Cycles += 20
			return 0, nil
		},
		// ext_fill(ptr, n) writes n bytes of a pattern at raw ptr.
		"ext_fill": func(m *Machine, args []uint64) (uint64, error) {
			if len(args) < 2 {
				return 0, fmt.Errorf("ext_fill needs (ptr, n)")
			}
			n := args[1]
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = byte(i)
			}
			m.Cycles += int64(n) / 8
			return 0, m.Space.Write(mem.Addr(args[0]), buf)
		},
		// ext_sum(ptr, n) reads and sums n bytes at raw ptr.
		"ext_sum": func(m *Machine, args []uint64) (uint64, error) {
			if len(args) < 2 {
				return 0, fmt.Errorf("ext_sum needs (ptr, n)")
			}
			buf := make([]byte, args[1])
			if err := m.Space.Read(mem.Addr(args[0]), buf); err != nil {
				return 0, err
			}
			var s uint64
			for _, b := range buf {
				s += uint64(b)
			}
			m.Cycles += int64(args[1]) / 8
			return s, nil
		},
	}
}
