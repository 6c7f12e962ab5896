package interp

import (
	"fmt"

	"github.com/conanalysis/owl/internal/bytecode"
	"github.com/conanalysis/owl/internal/callstack"
	"github.com/conanalysis/owl/internal/ir"
)

// This file is the compiled execution engine: the token-threaded
// dispatch over internal/bytecode words and the compiled counterparts
// of exec's call paths. Fidelity contract: for the same scheduler
// decisions, every observable — events, faults, output, schedule trace,
// step count, arena contents — is identical to the tree walker's.
// exec() is the specification; each case of execWord mirrors the
// corresponding exec case including its fault texts and its order of
// evaluation, emission, and PC advance.

// evalRef resolves a 16-bit value reference in a compiled frame. Slot,
// constant, and global references can never fault; RefOther falls back
// to the operand evaluator for the lazy cases (string interning,
// intrinsic reference ids, unresolvable operands).
func (m *Machine) evalRef(t *Thread, fr *Frame, ref uint16) (int64, *Fault) {
	idx := int(ref & bytecode.RefIdxMask)
	switch ref >> bytecode.RefTagShift {
	case bytecode.RefSlot:
		return fr.Slots[idx], nil
	case bytecode.RefConst:
		return fr.BC.Consts[idx], nil
	case bytecode.RefGlobal:
		return m.globalBase[idx], nil
	}
	// Split out so evalRef stays within the inlining budget: the three
	// hot tags resolve with no call at all.
	return m.evalOther(t, fr, idx)
}

// evalOther is kept out of line (it is the rare, already-expensive
// path) so evalRef itself fits the inliner's budget.
//
//go:noinline
func (m *Machine) evalOther(t *Thread, fr *Frame, idx int) (int64, *Fault) {
	return m.eval(t, fr.BC.Others[idx])
}

// refFast resolves the three never-faulting reference tags with no
// call at all; ok is false for RefOther, which the caller must route
// through evalRef (the slow path's side effects — lazy string
// interning, intrinsic reference ids — must still happen). evalRef
// itself is beyond the inlining budget, so the dispatch loop pairs
// this with an explicit fallback.
func refFast(m *Machine, fr *Frame, ref uint16) (int64, bool) {
	idx := ref & bytecode.RefIdxMask
	switch ref >> bytecode.RefTagShift {
	case bytecode.RefSlot:
		return fr.Slots[idx], true
	case bytecode.RefConst:
		return fr.BC.Consts[idx], true
	case bytecode.RefGlobal:
		return m.globalBase[idx], true
	}
	return 0, false
}

// takeEdge transfers control along a precompiled edge: the target
// block's phi moves for this predecessor as a parallel copy (all
// sources read before any destination is written, like enterBlock),
// then the jump.
func (m *Machine) takeEdge(t *Thread, fr *Frame, e *bytecode.Edge) {
	if len(e.Moves) == 1 {
		// One move needs no buffering to be a parallel copy.
		v, ok := refFast(m, fr, e.Moves[0].Src)
		if !ok {
			v, _ = m.evalRef(t, fr, e.Moves[0].Src)
		}
		fr.Slots[e.Moves[0].Dst] = v
	} else if len(e.Moves) > 0 {
		vals := m.moveBuf[:0]
		for i := range e.Moves {
			// Eval faults are discarded, exactly like enterBlock's phis.
			v, _ := m.evalRef(t, fr, e.Moves[i].Src)
			vals = append(vals, v)
		}
		for i := range e.Moves {
			fr.Slots[e.Moves[i].Dst] = vals[i]
		}
		m.moveBuf = vals[:0]
	}
	fr.prevEdge = e.Idx
	fr.FPC = e.PC
}

// faultAt faults at the frame's current instruction, materializing it
// when the fast path passed nil (fault paths are cold; the hot path
// skips the Instrs load entirely when no observer wants instructions).
func (m *Machine) faultAt(t *Thread, fr *Frame, in *ir.Instr, f *Fault) {
	if in == nil {
		in = fr.BC.Instrs[fr.FPC]
	}
	m.fault(t, in, f)
}

// execWord executes one compiled word for thread t (whose top frame is
// fr). in is the current instruction, or nil when the caller skipped
// loading it (no observers attached): the cold paths that need it —
// faults, calls, allocas — materialize it from fr.BC.Instrs[fr.FPC]
// themselves. Whenever m.hasObs is set the caller passes it non-nil,
// so event emission never sees nil.
func (m *Machine) execWord(t *Thread, fr *Frame, in *ir.Instr, w uint64) {
	bc := fr.BC
	dst := int(w >> bytecode.DstShift & bytecode.DstMask)
	a := uint16(w >> bytecode.AShift)
	b := uint16(w >> bytecode.BShift)

	switch byte(w) {
	case bytecode.OpMove: // const, addr, func
		v, f := m.evalRef(t, fr, a)
		if f != nil {
			m.faultAt(t, fr, in, f)
			return
		}
		fr.Slots[dst] = v
		fr.FPC++

	case bytecode.OpLoad:
		addr, f := m.evalRef(t, fr, a)
		if f == nil {
			var v int64
			v, f = m.mem.Load(addr)
			if f == nil {
				fr.Slots[dst] = v
				if m.hasObs {
					m.emit(EvRead, t.ID, addr, v, 0, in)
				}
				fr.FPC++
				return
			}
			f.Addr = addr
		}
		m.faultAt(t, fr, in, f)

	case bytecode.OpLoadG:
		// A live global block at offset 0: provably in bounds, never
		// freed — no check needed.
		gb := m.globalBlock[a]
		v := gb.Words[0]
		fr.Slots[dst] = v
		if m.hasObs {
			m.emit(EvRead, t.ID, gb.Base, v, 0, in)
		}
		fr.FPC++

	case bytecode.OpStore:
		val, f := m.evalRef(t, fr, a)
		if f == nil {
			var addr int64
			addr, f = m.evalRef(t, fr, b)
			if f == nil {
				if f = m.mem.Store(addr, val); f == nil {
					if m.hasObs {
						m.emit(EvWrite, t.ID, addr, val, 0, in)
					}
					fr.FPC++
					return
				}
				f.Addr = addr
			}
		}
		m.faultAt(t, fr, in, f)

	case bytecode.OpStoreG:
		val, f := m.evalRef(t, fr, a)
		if f != nil {
			m.faultAt(t, fr, in, f)
			return
		}
		gb := m.globalBlock[b]
		// Through wordsForWrite so copy-on-write snapshots stay correct.
		m.mem.wordsForWrite(gb)[0] = val
		if m.hasObs {
			m.emit(EvWrite, t.ID, gb.Base, val, 0, in)
		}
		fr.FPC++

	case bytecode.OpBin:
		av, f := m.evalRef(t, fr, a)
		if f != nil {
			m.faultAt(t, fr, in, f)
			return
		}
		bv, f := m.evalRef(t, fr, b)
		if f != nil {
			m.faultAt(t, fr, in, f)
			return
		}
		v, f := binOp(ir.BinKind(w>>bytecode.SubShift&bytecode.SubMask), av, bv)
		if f != nil {
			m.faultAt(t, fr, in, f)
			return
		}
		fr.Slots[dst] = v
		fr.FPC++

	case bytecode.OpCmp:
		av, _ := m.evalRef(t, fr, a)
		bv, _ := m.evalRef(t, fr, b)
		if cmpOp(ir.CmpPred(w>>bytecode.SubShift&bytecode.SubMask), av, bv) {
			fr.Slots[dst] = 1
		} else {
			fr.Slots[dst] = 0
		}
		fr.FPC++

	case bytecode.OpBr:
		c, _ := m.evalRef(t, fr, a)
		taken := c != 0
		if m.hasObs {
			m.emit(EvBranch, t.ID, 0, boolToInt(taken), 0, in)
		}
		if taken {
			m.takeEdge(t, fr, &bc.Edges[dst])
		} else {
			m.takeEdge(t, fr, &bc.Edges[b])
		}

	case bytecode.OpJmp:
		m.takeEdge(t, fr, &bc.Edges[dst])

	case bytecode.OpRet:
		var v int64
		if w>>bytecode.SubShift&1 != 0 {
			v, _ = m.evalRef(t, fr, a)
		}
		m.ret(t, v)

	case bytecode.OpAlloca:
		if in == nil {
			in = bc.Instrs[fr.FPC]
		}
		n, _ := m.evalRef(t, fr, a)
		blk := m.mem.Alloc(n, BlockStack, fmt.Sprintf("alloca@%s:%d", fr.Fn.Name, in.Pos.Line), t.Stack())
		fr.Allocas = append(fr.Allocas, blk)
		fr.Slots[dst] = blk.Base
		if m.hasObs {
			m.emit(EvAlloc, t.ID, blk.Base, 0, n, in)
		}
		fr.FPC++

	case bytecode.OpGep:
		base, f := m.evalRef(t, fr, a)
		if f != nil {
			m.faultAt(t, fr, in, f)
			return
		}
		off, _ := m.evalRef(t, fr, b)
		fr.Slots[dst] = base + off
		fr.FPC++

	case bytecode.OpCall:
		m.execCallSite(t, fr, in, &bc.Calls[dst])

	default:
		// OpNop with a non-nil instr encodes an op the compiler does not
		// know; fault exactly like exec's default. (The nil-instr sentinel
		// never reaches execWord — the step loops fault on it first.)
		if in == nil {
			in = bc.Instrs[fr.FPC]
		}
		m.fault(t, in, &Fault{Kind: FaultBadCall, Msg: fmt.Sprintf("unknown op %s", in.Op)})
	}
}

func (m *Machine) execCallSite(t *Thread, fr *Frame, in *ir.Instr, cs *bytecode.CallSite) {
	switch cs.Kind {
	case bytecode.CallLock:
		// Compile-time-recognized single-argument mutex_lock: the body of
		// intrinsic's "mutex_lock" case with the call machinery (argument
		// buffer, string dispatch) stripped.
		addr, f := m.evalRef(t, fr, cs.Args[0])
		if f != nil {
			m.faultAt(t, fr, in, f)
			return
		}
		if owner, held := m.lockOwner(addr); held {
			if owner == t.ID {
				m.faultAt(t, fr, in, &Fault{Kind: FaultAbort, Addr: addr,
					Msg: "recursive lock of non-recursive mutex (self deadlock)"})
				return
			}
			t.Status = StatusBlockedMutex
			t.WaitAddr = addr
			m.markSched(t)
			return // retry when woken
		}
		m.lockAcquire(addr, t.ID)
		if m.hasObs {
			m.emit(EvAcquire, t.ID, addr, 0, 0, in)
		}
		if cs.DstSlot >= 0 {
			fr.Slots[cs.DstSlot] = 0
		}
		fr.FPC++
	case bytecode.CallUnlock:
		// Likewise for mutex_unlock (release event before the wake loop,
		// exactly like the intrinsic body).
		addr, f := m.evalRef(t, fr, cs.Args[0])
		if f != nil {
			m.faultAt(t, fr, in, f)
			return
		}
		if owner, held := m.lockOwner(addr); held && owner == t.ID {
			m.lockRelease(addr)
			if m.hasObs {
				m.emit(EvRelease, t.ID, addr, 0, 0, in)
			}
			for _, w := range m.threads {
				if w.Status == StatusBlockedMutex && w.WaitAddr == addr {
					w.Status = StatusRunnable
					m.markSched(w)
				}
			}
		}
		if cs.DstSlot >= 0 {
			fr.Slots[cs.DstSlot] = 0
		}
		fr.FPC++
	case bytecode.CallFunc:
		if in == nil {
			in = fr.BC.Instrs[fr.FPC]
		}
		m.callFuncCompiled(t, fr, in, cs, cs.Fn)
	case bytecode.CallIntrinsic:
		if in == nil {
			in = fr.BC.Instrs[fr.FPC]
		}
		m.callIntrinsicCompiled(t, fr, in, cs, cs.Name)
	case bytecode.CallIndirect:
		if in == nil {
			in = fr.BC.Instrs[fr.FPC]
		}
		v := fr.Slots[cs.CalleeSlot]
		if v == 0 {
			m.fault(t, in, &Fault{Kind: FaultNullFuncPtr, Addr: 0,
				Msg: fmt.Sprintf("indirect call through %%%s == NULL", cs.Name)})
			return
		}
		if name, ok := m.intrinsicByRef[v]; ok {
			m.callIntrinsicCompiled(t, fr, in, cs, name)
			return
		}
		fn := m.FuncForRef(v)
		if fn == nil {
			m.fault(t, in, &Fault{Kind: FaultBadCall, Addr: v,
				Msg: fmt.Sprintf("indirect call through %%%s = %d is not a function", cs.Name, v)})
			return
		}
		m.callFuncCompiled(t, fr, in, cs, fn)
	default:
		m.faultAt(t, fr, in, &Fault{Kind: FaultBadCall, Msg: "bad callee operand"})
	}
}

func (m *Machine) callFuncCompiled(t *Thread, fr *Frame, in *ir.Instr, cs *bytecode.CallSite, fn *ir.Func) {
	args := m.argBuf[:0]
	for _, ar := range cs.Args {
		v, f := m.evalRef(t, fr, ar)
		if f != nil {
			m.fault(t, in, f)
			return
		}
		args = append(args, v)
	}
	if m.hasObs {
		m.emit(EvCall, t.ID, 0, 0, 0, in)
	}
	fc := m.prog.Funcs[fn]
	nf := &Frame{
		Fn: fn, Block: fn.Entry(), BC: fc, code: fc.Code,
		FPC: fc.EntryPC, Slots: make([]int64, fc.NumSlots),
		prevEdge:  -1,
		CallInstr: in,
		chain:     callstack.PushNode(fr.chain, callstack.Entry{Fn: fr.Fn.Name, Pos: in.Pos}),
	}
	for i, s := range fc.ParamSlots {
		if i < len(args) {
			nf.Slots[s] = args[i]
		}
	}
	m.argBuf = args[:0]
	t.Frames = append(t.Frames, nf)
	t.top = nf
}

func (m *Machine) callIntrinsicCompiled(t *Thread, fr *Frame, in *ir.Instr, cs *bytecode.CallSite, name string) {
	args := m.argBuf[:0]
	for _, ar := range cs.Args {
		v, f := m.evalRef(t, fr, ar)
		if f != nil {
			m.fault(t, in, f)
			return
		}
		args = append(args, v)
	}
	m.argBuf = args[:0]
	m.intrinsic(t, in, name, args, cs.DstSlot)
}
