package interp

import (
	"fmt"

	"github.com/conanalysis/owl/internal/bytecode"
	"github.com/conanalysis/owl/internal/callstack"
	"github.com/conanalysis/owl/internal/ir"
)

// This file is the compiled execution engine: the token-threaded
// dispatch over internal/bytecode words, the batched run loop, and the
// compiled counterparts of exec's call paths. Fidelity contract: for
// the same scheduler decisions, every observable — events, faults,
// output, schedule trace, step count, arena contents — is identical to
// the tree walker's. exec() is the specification; each case of
// execWord mirrors the corresponding exec case including its fault
// texts and its order of evaluation, emission, and PC advance.

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
					m.emit(Event{Kind: EvRead, TID: t.ID, Addr: addr, Val: v, Instr: in})
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
			m.emit(Event{Kind: EvRead, TID: t.ID, Addr: gb.Base, Val: v, Instr: in})
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
						m.emit(Event{Kind: EvWrite, TID: t.ID, Addr: addr, Val: val, Instr: in})
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
			m.emit(Event{Kind: EvWrite, TID: t.ID, Addr: gb.Base, Val: val, Instr: in})
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
			m.emit(Event{Kind: EvBranch, TID: t.ID, Val: boolToInt(taken), Instr: in})
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
			m.emit(Event{Kind: EvAlloc, TID: t.ID, Addr: blk.Base, Aux: n, Instr: in})
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
			m.schedDirty = true
			return // retry when woken
		}
		m.lockAcquire(addr, t.ID)
		if m.hasObs {
			m.emit(Event{Kind: EvAcquire, TID: t.ID, Addr: addr, Instr: in})
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
				m.emit(Event{Kind: EvRelease, TID: t.ID, Addr: addr, Instr: in})
			}
			for _, w := range m.threads {
				if w.Status == StatusBlockedMutex && w.WaitAddr == addr {
					w.Status = StatusRunnable
					m.schedDirty = true
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
		m.emit(Event{Kind: EvCall, TID: t.ID, Instr: in})
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

// runBytecode is the batched dispatch loop: Step's protocol — runnable
// scan, scheduler choice, trace append, switch notification, execute —
// unrolled so that the per-step overheads (runnable recomputation,
// interface dispatch on Thread lookup, breakpoint checks) disappear
// from the hot path. With a PlanningScheduler and a calm machine,
// whole windows of choices are planned in one scheduler call and run
// by runPlanned; otherwise each step consults the scheduler
// individually, and superinstruction heads keep control inside
// fusedRun for as long as the scheduler keeps picking the same thread.
// Only entered when no breakpoint is attached; a machine with a
// breakpoint goes through Step.
func (m *Machine) runBytecode() {
	maxSteps := m.cfg.MaxSteps
	sched := m.cfg.Sched
	planner, _ := sched.(PlanningScheduler)
	needInstr := m.hasObs || m.hasSwitch
	pend := ThreadID(-1)
	for {
		if m.exited || m.step >= maxSteps {
			return
		}
		if planner != nil && pend < 0 && !m.schedDirty && !m.anySleeping {
			// A planner that declines to plan (k=0) falls through to one
			// per-step pick, so a run can never spin without progress.
			if len(m.runnableCached()) > 0 && m.runPlanned(planner, needInstr, maxSteps) > 0 {
				continue
			}
			// Empty runnable with nothing sleeping: the slow path below
			// concludes the run.
		}
		var t *Thread
		if pend >= 0 {
			// The scheduler already chose this thread during a fused batch;
			// honor the choice without consulting it again.
			t = m.Thread(pend)
			pend = -1
			if t == nil || !t.Runnable(m.step) {
				// Defensive, mirroring Step: a misbehaving choice falls back
				// to the first runnable thread (the set is still clean).
				t = m.Thread(m.runnableCached()[0])
			}
		} else {
			runnable := m.runnableCached()
			if len(runnable) == 0 {
				wake := -1
				for _, th := range m.threads {
					if th.Status == StatusSleeping && !th.Suspended {
						if wake < 0 || th.SleepUntil < wake {
							wake = th.SleepUntil
						}
					}
				}
				if wake < 0 || wake > maxSteps {
					return
				}
				m.step = wake
				runnable = m.runnableIDs()
				if len(runnable) == 0 {
					return
				}
			}
			tid := sched.Next(runnable, m.step)
			t = m.Thread(tid)
			if t == nil || !t.Runnable(m.step) {
				t = m.Thread(runnable[0])
			}
		}
		if t.Status == StatusSleeping {
			t.Status = StatusRunnable
		}
		m.traceAppend(t.ID)
		fr := t.Top()
		pc := fr.FPC
		w := fr.code[pc]
		var in *ir.Instr
		// Only sentinel words (end-of-block) and unknown-op words encode
		// OpNop, so the opcode alone distinguishes the one nil-instruction
		// case; the hot path skips the Instrs load unless an observer
		// wants instructions.
		if byte(w) == bytecode.OpNop {
			if in = fr.BC.Instrs[pc]; in == nil {
				m.fault(t, nil, &Fault{Kind: FaultBadCall, Msg: "fell off end of block"})
				continue
			}
		} else if needInstr {
			in = fr.BC.Instrs[pc]
		}
		if m.hasSwitch {
			if m.prevTID >= 0 && m.prevTID != t.ID {
				for _, so := range m.cfg.SwitchObservers {
					so.OnSwitch(m, m.prevTID, t.ID, m.prevInstr, in)
				}
			}
			m.prevTID, m.prevInstr = t.ID, in
		}
		m.execWord(t, fr, in, w)
		m.step++
		if n := int(w >> bytecode.FusedShift & bytecode.FusedMask); n > 0 {
			pend = m.fusedRun(t, fr, pc, n)
		}
	}
}

// runPlanned executes one pre-planned window of scheduler choices.
// Preconditions (checked by the caller): machine not exited, below the
// step bound, schedule state clean (no pending status transition, no
// sleeping thread), runnable set non-empty. The window ends at the
// first status transition — the next choice must then see the new
// runnable set, exactly as the per-step protocol would — and the
// consumed prefix is committed to the scheduler via Advance.
//
// Dispatch for the frequent ops is inlined here, mirroring the
// corresponding execWord cases exactly (execWord is the specification;
// any change there must be mirrored here): the inlining elides the
// call and redundant decode on ~80% of steps.
func (m *Machine) runPlanned(ps PlanningScheduler, needInstr bool, maxSteps int) int {
	if m.planBuf == nil {
		m.planBuf = make([]ThreadID, 128)
		m.planSize = 8
	}
	n := m.planSize
	if left := maxSteps - m.step; n > left {
		n = left
	}
	runnable := m.runnableBuf
	startStep := m.step
	k := ps.Plan(runnable, startStep, m.planBuf[:n])
	consumed := 0
	// Superinstruction accounting mirrors fusedRun: a head's batch
	// counts once every component runs back-to-back on the same thread
	// with no disturbance.
	batchLeft, batchN, batchPC := 0, 0, 0
	var batchT *Thread
	var batchFr *Frame
	for consumed < k {
		if m.exited || m.schedDirty || m.anySleeping {
			break
		}
		tid := m.planBuf[consumed]
		t := m.Thread(tid)
		if t == nil || !t.Runnable(m.step) {
			// Defensive, mirroring Step: the set is still clean, so
			// runnable[0] is a live runnable thread.
			t = m.Thread(runnable[0])
		}
		consumed++
		if batchLeft > 0 {
			kth := batchN - batchLeft + 1
			if tid != batchT.ID || batchT.Status != StatusRunnable || batchT.Suspended ||
				batchT.Top() != batchFr || batchFr.FPC != batchPC+kth {
				batchLeft = 0
			}
		}
		m.traceAppend(t.ID)
		fr := t.top
		pc := fr.FPC
		w := fr.code[pc]
		bc := fr.BC
		var in *ir.Instr
		// Only sentinel words (end-of-block) and unknown-op words encode
		// OpNop, so the opcode alone distinguishes the one nil-instruction
		// case; the hot path skips the Instrs load unless an observer
		// wants instructions.
		if byte(w) == bytecode.OpNop {
			if in = bc.Instrs[pc]; in == nil {
				m.fault(t, nil, &Fault{Kind: FaultBadCall, Msg: "fell off end of block"})
				continue
			}
		} else if needInstr {
			in = bc.Instrs[pc]
		}
		if m.hasSwitch {
			if m.prevTID >= 0 && m.prevTID != t.ID {
				for _, so := range m.cfg.SwitchObservers {
					so.OnSwitch(m, m.prevTID, t.ID, m.prevInstr, in)
				}
			}
			m.prevTID, m.prevInstr = t.ID, in
		}
		switch byte(w) {
		case bytecode.OpLoadG:
			gb := m.globalBlock[uint16(w>>bytecode.AShift)]
			v := gb.Words[0]
			fr.Slots[w>>bytecode.DstShift&bytecode.DstMask] = v
			if m.hasObs {
				m.emit(Event{Kind: EvRead, TID: t.ID, Addr: gb.Base, Val: v, Instr: in})
			}
			fr.FPC++
		case bytecode.OpStoreG:
			val, ok := refFast(m, fr, uint16(w>>bytecode.AShift))
			if !ok {
				var f *Fault
				if val, f = m.evalRef(t, fr, uint16(w>>bytecode.AShift)); f != nil {
					m.faultAt(t, fr, in, f)
					break
				}
			}
			gb := m.globalBlock[uint16(w>>bytecode.BShift)]
			m.mem.wordsForWrite(gb)[0] = val
			if m.hasObs {
				m.emit(Event{Kind: EvWrite, TID: t.ID, Addr: gb.Base, Val: val, Instr: in})
			}
			fr.FPC++
		case bytecode.OpBin:
			av, ok := refFast(m, fr, uint16(w>>bytecode.AShift))
			var f *Fault
			if !ok {
				av, f = m.evalRef(t, fr, uint16(w>>bytecode.AShift))
			}
			if f == nil {
				bv, ok := refFast(m, fr, uint16(w>>bytecode.BShift))
				if !ok {
					bv, f = m.evalRef(t, fr, uint16(w>>bytecode.BShift))
				}
				if f == nil {
					var v int64
					if v, f = binOp(ir.BinKind(w>>bytecode.SubShift&bytecode.SubMask), av, bv); f == nil {
						fr.Slots[w>>bytecode.DstShift&bytecode.DstMask] = v
						fr.FPC++
						break
					}
				}
			}
			m.faultAt(t, fr, in, f)
		case bytecode.OpCmp:
			av, ok := refFast(m, fr, uint16(w>>bytecode.AShift))
			if !ok {
				av, _ = m.evalRef(t, fr, uint16(w>>bytecode.AShift))
			}
			bv, ok := refFast(m, fr, uint16(w>>bytecode.BShift))
			if !ok {
				bv, _ = m.evalRef(t, fr, uint16(w>>bytecode.BShift))
			}
			if cmpOp(ir.CmpPred(w>>bytecode.SubShift&bytecode.SubMask), av, bv) {
				fr.Slots[w>>bytecode.DstShift&bytecode.DstMask] = 1
			} else {
				fr.Slots[w>>bytecode.DstShift&bytecode.DstMask] = 0
			}
			fr.FPC++
		case bytecode.OpBr:
			c, ok := refFast(m, fr, uint16(w>>bytecode.AShift))
			if !ok {
				c, _ = m.evalRef(t, fr, uint16(w>>bytecode.AShift))
			}
			taken := c != 0
			if m.hasObs {
				m.emit(Event{Kind: EvBranch, TID: t.ID, Val: boolToInt(taken), Instr: in})
			}
			e := &bc.Edges[uint16(w>>bytecode.BShift)]
			if taken {
				e = &bc.Edges[w>>bytecode.DstShift&bytecode.DstMask]
			}
			if len(e.Moves) == 0 {
				fr.prevEdge = e.Idx
				fr.FPC = e.PC
			} else {
				m.takeEdge(t, fr, e)
			}
		case bytecode.OpJmp:
			e := &bc.Edges[w>>bytecode.DstShift&bytecode.DstMask]
			if len(e.Moves) == 0 {
				fr.prevEdge = e.Idx
				fr.FPC = e.PC
			} else {
				m.takeEdge(t, fr, e)
			}
		default:
			m.execWord(t, fr, in, w)
		}
		m.step++
		if batchLeft > 0 {
			if batchLeft--; batchLeft == 0 {
				m.superinstrHits++
			}
		}
		if bn := int(w >> bytecode.FusedShift & bytecode.FusedMask); bn > 0 && batchLeft == 0 {
			batchLeft, batchN, batchPC = bn, bn, pc
			batchT, batchFr = t, fr
		}
	}
	ps.Advance(runnable, startStep, consumed)
	// Adapt the window to the observed calm interval: a fully-consumed
	// plan doubles it, one cut short shrinks toward what survived, so
	// transition-heavy phases don't pay for discarded plan entries.
	if consumed == k {
		if m.planSize *= 2; m.planSize > len(m.planBuf) {
			m.planSize = len(m.planBuf)
		}
	} else {
		m.planSize = min(max(2*consumed, 8), len(m.planBuf))
	}
	return consumed
}

// fusedRun tries to execute the n component words following a
// superinstruction head back-to-back. The scheduler is still consulted
// before every component (schedulers are stateful; traces must be
// identical), so fusion only elides the runnable-set and dispatch
// overhead. Any disturbance — a status change, a control transfer out
// of the straight-line sequence, the scheduler preferring another
// thread — abandons the batch. Returns the thread the scheduler chose
// for another thread (-1 if none), whose choice the caller must honor.
func (m *Machine) fusedRun(t *Thread, fr *Frame, pc, n int) ThreadID {
	sched := m.cfg.Sched
	for k := 1; k <= n; k++ {
		if m.exited || m.step >= m.cfg.MaxSteps || m.schedDirty || m.anySleeping ||
			t.Status != StatusRunnable || t.Suspended || t.Top() != fr || fr.FPC != pc+k {
			return -1
		}
		tid := sched.Next(m.runnableBuf, m.step)
		if tid != t.ID {
			return tid
		}
		m.traceAppend(t.ID)
		var in *ir.Instr
		if m.hasObs || m.hasSwitch {
			in = fr.BC.Instrs[fr.FPC]
		}
		if m.hasSwitch {
			m.prevTID, m.prevInstr = t.ID, in // same thread: no OnSwitch
		}
		m.execWord(t, fr, in, fr.code[fr.FPC])
		m.step++
	}
	m.superinstrHits++
	return -1
}
