package bytecode

import (
	"fmt"
	"time"

	"github.com/conanalysis/owl/internal/ir"
)

type lowerKey struct{}

// Compile lowers a frozen module, memoizing the result on the module so
// that every machine executing it (workers, snapshot resumes, confirm
// replays) shares one compiled Program.
func Compile(mod *ir.Module) (*Program, error) {
	v, err := mod.LowerOnce(lowerKey{}, func() (any, error) {
		return compile(mod)
	})
	if err != nil {
		return nil, err
	}
	return v.(*Program), nil
}

func compile(mod *ir.Module) (*Program, error) {
	start := time.Now()
	if len(mod.Globals) > maxPool {
		return nil, fmt.Errorf("bytecode: module %s: %d globals exceeds %d", mod.Name, len(mod.Globals), maxPool)
	}
	gOrd := make(map[string]int, len(mod.Globals))
	for i, g := range mod.Globals {
		gOrd[g.Name] = i
	}
	fnIdx := make(map[string]int, len(mod.Funcs))
	for i, f := range mod.Funcs {
		fnIdx[f.Name] = i
	}
	p := &Program{Mod: mod, Funcs: make(map[*ir.Func]*FuncCode, len(mod.Funcs))}
	sz := make([]sizes, len(mod.Funcs))
	var total sizes
	for i, f := range mod.Funcs {
		sz[i] = measure(f)
		total.add(sz[i])
	}
	c := &fnComp{
		gOrd: gOrd, fnIdx: fnIdx,
		constIdx: make(map[int64]int),
		otherIdx: make(map[string]int),
		code:     make([]uint64, 0, total.words),
		instrs:   make([]*ir.Instr, 0, total.words),
		blockOf:  make([]*ir.Block, 0, total.words),
		ints:     make([]int, 0, total.flat+total.params),
		names:    make([]string, 0, total.slots),
		consts:   make([]int64, 0, total.consts),
		edges:    make([]Edge, 0, total.edges),
		calls:    make([]CallSite, 0, total.calls),
		args:     make([]uint16, 0, total.args),
	}
	for i, f := range mod.Funcs {
		fc, err := c.compileFunc(f, sz[i])
		if err != nil {
			return nil, fmt.Errorf("bytecode: func @%s: %w", f.Name, err)
		}
		fc.Idx = i
		p.Funcs[f] = fc
	}
	p.CompileNS = time.Since(start).Nanoseconds()
	return p, nil
}

// sizes bounds the tables one function compiles to, so compile can
// allocate each table once per module and carve every function's slice
// from it.
type sizes struct {
	words  int // non-phi instructions plus one sentinel per block
	flat   int // instructions, phis included
	params int
	slots  int // parameters plus defined registers (read-only ones are rare)
	consts int // constant operands; function references may add a few more
	edges  int
	calls  int
	args   int // call arguments
}

func measure(f *ir.Func) sizes {
	z := sizes{words: len(f.Blocks), flat: f.NumInstrs(), params: len(f.Params), slots: len(f.Params)}
	for _, in := range f.Instrs() {
		if defines(in) {
			z.slots++
		}
		for _, a := range in.Args {
			if a.Kind == ir.OperandConst {
				z.consts++
			}
		}
		switch in.Op {
		case ir.OpPhi:
			continue
		case ir.OpBr:
			z.edges += 2
		case ir.OpJmp:
			z.edges++
		case ir.OpCall:
			z.calls++
			z.args += len(in.CallArgs())
		}
		z.words++
	}
	return z
}

func (z *sizes) add(o sizes) {
	z.words += o.words
	z.flat += o.flat
	z.params += o.params
	z.slots += o.slots
	z.consts += o.consts
	z.edges += o.edges
	z.calls += o.calls
	z.args += o.args
}

// fnComp is the compilation state of the function being lowered.
// Lowering runs when a program's first machine is built, so its
// allocations are paid on a job's critical path: the index maps are
// scratch, cleared and reused for every function of the module, and the
// tables are carved from module-wide arrays.
type fnComp struct {
	f     *ir.Func
	gOrd  map[string]int // global name -> module ordinal
	fnIdx map[string]int // function name -> module index

	fc       *FuncCode
	constIdx map[int64]int
	otherIdx map[string]int // Operand.String() -> Others index

	code    []uint64
	instrs  []*ir.Instr
	blockOf []*ir.Block
	ints    []int // PCofInstr and ParamSlots
	names   []string
	consts  []int64
	edges   []Edge
	calls   []CallSite
	args    []uint16
}

// carve returns an empty slice of capacity n taken from the front of
// *pool, or a fresh one when the pool is short. The capacity is capped,
// so appending past n reallocates instead of overwriting the next
// function's table.
func carve[T any](pool *[]T, n int) []T {
	if cap(*pool) < n {
		return make([]T, 0, n)
	}
	s := (*pool)[:0:n]
	*pool = (*pool)[n:n]
	return s
}

func (c *fnComp) compileFunc(f *ir.Func, z sizes) (*FuncCode, error) {
	c.f = f
	c.fc = &FuncCode{
		Fn:         f,
		SlotOf:     make(map[string]int, z.slots),
		SlotNames:  carve(&c.names, z.slots),
		ParamSlots: carve(&c.ints, z.params),
		Code:       carve(&c.code, z.words),
		Instrs:     carve(&c.instrs, z.words),
		BlockOfPC:  carve(&c.blockOf, z.words),
		PCofInstr:  carve(&c.ints, z.flat)[:z.flat],
		Consts:     carve(&c.consts, z.consts),
		Edges:      carve(&c.edges, z.edges),
		Calls:      carve(&c.calls, z.calls),
	}
	clear(c.constIdx)
	clear(c.otherIdx)
	if err := c.assignSlots(); err != nil {
		return nil, err
	}
	c.layoutBlocks()
	for _, b := range f.Blocks {
		if err := c.encodeBlock(b); err != nil {
			return nil, err
		}
		for len(c.fc.BlockOfPC) < len(c.fc.Code) {
			c.fc.BlockOfPC = append(c.fc.BlockOfPC, b)
		}
	}
	return c.fc, nil
}

// assignSlots gives every register name the function defines a dense
// slot index: parameters first (so frames can bind arguments by
// position), then definitions in flat instruction order. The verifier
// rejects reads of undefined registers, so this covers every read too;
// vref still slots a name it meets unslotted, which only a destination
// on a non-defining op (read as 0 by the tree walker too) can be.
func (c *fnComp) assignSlots() error {
	for _, p := range c.f.Params {
		s, err := c.slot(p)
		if err != nil {
			return err
		}
		c.fc.ParamSlots = append(c.fc.ParamSlots, s)
	}
	for _, in := range c.f.Instrs() {
		if defines(in) {
			if _, err := c.slot(in.Dst); err != nil {
				return err
			}
		}
	}
	return nil
}

// defines reports whether the tree walker writes Regs[in.Dst] for this
// instruction (unconditionally for value-producing ops — including a
// nameless "" destination, which gets a slot so the behaviors match —
// but only for named destinations on calls).
func defines(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpConst, ir.OpLoad, ir.OpBin, ir.OpCmp, ir.OpPhi,
		ir.OpAlloca, ir.OpGep, ir.OpAddrOf, ir.OpFunc:
		return true
	case ir.OpCall:
		return in.Dst != ""
	}
	return false
}

func (c *fnComp) slot(name string) (int, error) {
	if s, ok := c.fc.SlotOf[name]; ok {
		return s, nil
	}
	s := c.fc.NumSlots
	if s >= maxPool {
		return 0, fmt.Errorf("more than %d registers", maxPool)
	}
	c.fc.NumSlots++
	c.fc.SlotOf[name] = s
	c.fc.SlotNames = append(c.fc.SlotNames, name)
	return s, nil
}

// layoutBlocks assigns every instruction its word pc (PCofInstr): blocks
// in ir order, one word per non-phi instruction, plus one sentinel word
// per block. Phis (which have no word) map to their block's first pc: a
// frame snapshotted at a phi is a frame about to enter the block body,
// and block-entry state is exactly pc = first word.
func (c *fnComp) layoutBlocks() {
	pc := 0
	for _, b := range c.f.Blocks {
		for _, in := range b.Instrs {
			c.fc.PCofInstr[in.Index] = pc
			if in.Op != ir.OpPhi {
				pc++
			}
		}
		pc++ // sentinel
	}
	c.fc.EntryPC = 0
}

func (c *fnComp) constRef(v int64) (uint16, error) {
	if i, ok := c.constIdx[v]; ok {
		return MakeRef(RefConst, i), nil
	}
	i := len(c.fc.Consts)
	if i >= maxPool {
		return 0, fmt.Errorf("more than %d constants", maxPool)
	}
	c.fc.Consts = append(c.fc.Consts, v)
	c.constIdx[v] = i
	return MakeRef(RefConst, i), nil
}

func (c *fnComp) otherRef(o ir.Operand) (uint16, error) {
	key := o.String()
	if i, ok := c.otherIdx[key]; ok {
		return MakeRef(RefOther, i), nil
	}
	i := len(c.fc.Others)
	if i >= maxPool {
		return 0, fmt.Errorf("more than %d unresolved operands", maxPool)
	}
	c.fc.Others = append(c.fc.Others, o)
	c.otherIdx[key] = i
	return MakeRef(RefOther, i), nil
}

// vref resolves a value operand to a 16-bit reference, mirroring
// Machine.eval's resolution rules. Anything eval resolves purely
// (registers, constants, known globals, module function references)
// becomes a fault-free pre-resolved tag; anything with lazy runtime
// side effects or fault behavior (string literals, intrinsic
// references, unknown names, stray labels) stays a RefOther so the
// engine's fallback evaluator reproduces the tree walker exactly.
func (c *fnComp) vref(o ir.Operand) (uint16, error) {
	switch o.Kind {
	case ir.OperandConst:
		return c.constRef(o.Imm)
	case ir.OperandReg:
		s, err := c.slot(o.Name)
		if err != nil {
			return 0, err
		}
		return MakeRef(RefSlot, s), nil
	case ir.OperandGlobal:
		if ord, ok := c.gOrd[o.Name]; ok {
			return MakeRef(RefGlobal, ord), nil
		}
		if fi, ok := c.fnIdx[o.Name]; ok {
			return c.constRef(FuncRefBase + int64(fi))
		}
		return c.otherRef(o)
	case ir.OperandFunc:
		if fi, ok := c.fnIdx[o.Name]; ok {
			return c.constRef(FuncRefBase + int64(fi))
		}
		return c.otherRef(o)
	default:
		return c.otherRef(o)
	}
}

func word(op byte, sub int, dst int, a, b uint16) uint64 {
	return uint64(op) | uint64(sub)<<SubShift |
		uint64(dst)<<DstShift | uint64(a)<<AShift | uint64(b)<<BShift
}

func (c *fnComp) put(in *ir.Instr, w uint64) {
	c.fc.Code = append(c.fc.Code, w)
	c.fc.Instrs = append(c.fc.Instrs, in)
}

// edge precompiles the control transfer from block src to the block
// named target: the target's phi moves for this predecessor plus the
// target's first pc. Returns the edge's index.
func (c *fnComp) edge(src *ir.Block, target string) (int, error) {
	tb := c.f.Block(target)
	if tb == nil {
		return 0, fmt.Errorf("branch to unknown block %s", target)
	}
	e := Edge{Target: tb, Src: src, PC: c.fc.StartPC(tb)}
	for _, in := range tb.Instrs {
		if in.Op != ir.OpPhi {
			break
		}
		src16, err := c.phiSrc(in, src.Name)
		if err != nil {
			return 0, err
		}
		ds, err := c.slot(in.Dst)
		if err != nil {
			return 0, err
		}
		e.Moves = append(e.Moves, Move{Dst: uint16(ds), Src: src16})
	}
	idx := len(c.fc.Edges)
	if idx > DstMask {
		return 0, fmt.Errorf("more than %d edges", DstMask+1)
	}
	e.Idx = int32(idx)
	c.fc.Edges = append(c.fc.Edges, e)
	return idx, nil
}

func (c *fnComp) phiSrc(phi *ir.Instr, from string) (uint16, error) {
	for _, pe := range phi.Phis {
		if pe.Block == from {
			return c.vref(pe.Val)
		}
	}
	// No matching edge: the tree walker uses 0 (see enterBlock).
	return c.constRef(0)
}

func (c *fnComp) encodeBlock(b *ir.Block) error {
	for _, in := range b.Instrs {
		if in.Op == ir.OpPhi {
			continue // realized by edge move lists
		}
		if err := c.encodeInstr(b, in); err != nil {
			return err
		}
	}
	c.put(nil, word(OpNop, 0, 0, 0, 0)) // sentinel: "fell off end of block"
	return nil
}

func (c *fnComp) encodeInstr(b *ir.Block, in *ir.Instr) error {
	switch in.Op {
	case ir.OpConst:
		a, err := c.constRef(in.Args[0].Imm)
		if err != nil {
			return err
		}
		ds, err := c.slot(in.Dst)
		if err != nil {
			return err
		}
		c.put(in, word(OpMove, 0, ds, a, 0))

	case ir.OpAddrOf:
		// The tree walker reads m.globals[name] directly: a known global
		// yields its address, an unknown one yields 0 — never a fault.
		var a uint16
		var err error
		if ord, ok := c.gOrd[in.Args[0].Name]; ok {
			a = MakeRef(RefGlobal, ord)
		} else if a, err = c.constRef(0); err != nil {
			return err
		}
		ds, err := c.slot(in.Dst)
		if err != nil {
			return err
		}
		c.put(in, word(OpMove, 0, ds, a, 0))

	case ir.OpFunc:
		a, err := c.vref(in.Args[0])
		if err != nil {
			return err
		}
		ds, err := c.slot(in.Dst)
		if err != nil {
			return err
		}
		c.put(in, word(OpMove, 0, ds, a, 0))

	case ir.OpLoad:
		ds, err := c.slot(in.Dst)
		if err != nil {
			return err
		}
		addr := in.Args[0]
		if ord, ok := c.globalOrd(addr); ok {
			// Direct, provably fault-free access to the global's block.
			c.put(in, word(OpLoadG, 0, ds, uint16(ord), 0))
			return nil
		}
		a, err := c.vref(addr)
		if err != nil {
			return err
		}
		c.put(in, word(OpLoad, 0, ds, a, 0))

	case ir.OpStore:
		a, err := c.vref(in.Args[0])
		if err != nil {
			return err
		}
		addr := in.Args[1]
		if ord, ok := c.globalOrd(addr); ok {
			c.put(in, word(OpStoreG, 0, 0, a, uint16(ord)))
			return nil
		}
		bref, err := c.vref(addr)
		if err != nil {
			return err
		}
		c.put(in, word(OpStore, 0, 0, a, bref))

	case ir.OpBin:
		a, err := c.vref(in.Args[0])
		if err != nil {
			return err
		}
		bref, err := c.vref(in.Args[1])
		if err != nil {
			return err
		}
		ds, err := c.slot(in.Dst)
		if err != nil {
			return err
		}
		if int(in.Bin) > SubMask {
			return fmt.Errorf("binop kind %d exceeds sub field", int(in.Bin))
		}
		c.put(in, word(OpBin, int(in.Bin), ds, a, bref))

	case ir.OpCmp:
		a, err := c.vref(in.Args[0])
		if err != nil {
			return err
		}
		bref, err := c.vref(in.Args[1])
		if err != nil {
			return err
		}
		ds, err := c.slot(in.Dst)
		if err != nil {
			return err
		}
		if int(in.Pred) > SubMask {
			return fmt.Errorf("cmp pred %d exceeds sub field", int(in.Pred))
		}
		c.put(in, word(OpCmp, int(in.Pred), ds, a, bref))

	case ir.OpBr:
		cond, err := c.vref(in.Args[0])
		if err != nil {
			return err
		}
		then, err := c.edge(b, in.Args[1].Name)
		if err != nil {
			return err
		}
		els, err := c.edge(b, in.Args[2].Name)
		if err != nil {
			return err
		}
		c.put(in, word(OpBr, 0, then, cond, uint16(els)))

	case ir.OpJmp:
		e, err := c.edge(b, in.Args[0].Name)
		if err != nil {
			return err
		}
		c.put(in, word(OpJmp, 0, e, 0, 0))

	case ir.OpRet:
		if len(in.Args) == 1 {
			a, err := c.vref(in.Args[0])
			if err != nil {
				return err
			}
			c.put(in, word(OpRet, 1, 0, a, 0))
		} else {
			c.put(in, word(OpRet, 0, 0, 0, 0))
		}

	case ir.OpAlloca:
		a, err := c.vref(in.Args[0])
		if err != nil {
			return err
		}
		ds, err := c.slot(in.Dst)
		if err != nil {
			return err
		}
		c.put(in, word(OpAlloca, 0, ds, a, 0))

	case ir.OpGep:
		a, err := c.vref(in.Args[0])
		if err != nil {
			return err
		}
		bref, err := c.vref(in.Args[1])
		if err != nil {
			return err
		}
		ds, err := c.slot(in.Dst)
		if err != nil {
			return err
		}
		c.put(in, word(OpGep, 0, ds, a, bref))

	case ir.OpCall:
		cs, err := c.callSite(in)
		if err != nil {
			return err
		}
		c.put(in, word(OpCall, 0, cs, 0, 0))

	default:
		// Preserved verbatim: the engine faults "unknown op" at dispatch
		// via the OpNop-with-instr default, exactly like exec's default.
		c.put(in, word(OpNop, 0, 0, 0, 0))
	}
	return nil
}

// globalOrd reports whether the operand is a known module global and
// returns its ordinal.
func (c *fnComp) globalOrd(o ir.Operand) (int, bool) {
	if o.Kind != ir.OperandGlobal {
		return 0, false
	}
	ord, ok := c.gOrd[o.Name]
	return ord, ok
}

func (c *fnComp) callSite(in *ir.Instr) (int, error) {
	cs := CallSite{DstSlot: -1}
	if in.Dst != "" {
		ds, err := c.slot(in.Dst)
		if err != nil {
			return 0, err
		}
		cs.DstSlot = ds
	}
	callee := in.Callee()
	switch callee.Kind {
	case ir.OperandFunc:
		if fi, ok := c.fnIdx[callee.Name]; ok {
			cs.Kind = CallFunc
			cs.Fn = c.f.Mod.Funcs[fi]
		} else {
			cs.Kind = CallIntrinsic
			cs.Name = callee.Name
			if len(in.CallArgs()) == 1 {
				switch callee.Name {
				case "mutex_lock":
					cs.Kind = CallLock
				case "mutex_unlock":
					cs.Kind = CallUnlock
				}
			}
		}
	case ir.OperandReg:
		s, err := c.slot(callee.Name)
		if err != nil {
			return 0, err
		}
		cs.Kind = CallIndirect
		cs.Name = callee.Name
		cs.CalleeSlot = s
	default:
		cs.Kind = CallBad
	}
	if cs.Kind != CallBad {
		cs.Args = carve(&c.args, len(in.CallArgs()))
		for _, a := range in.CallArgs() {
			ar, err := c.vref(a)
			if err != nil {
				return 0, err
			}
			cs.Args = append(cs.Args, ar)
		}
	}
	idx := len(c.fc.Calls)
	if idx > DstMask {
		return 0, fmt.Errorf("more than %d call sites", DstMask+1)
	}
	c.fc.Calls = append(c.fc.Calls, cs)
	return idx, nil
}
