package interp

import (
	"math/bits"

	"github.com/conanalysis/owl/internal/bytecode"
	"github.com/conanalysis/owl/internal/ir"
)

// This file is the machine's watched-instruction set: the instructions
// at which Config.Breakpoint is called. Like §5.2's LLDB address
// breakpoints, a watch costs nothing until a thread reaches it: every
// other step pays a flag test, and a bit test while anything is watched.
//
// The set belongs to the machine, not to the compiled program:
// bytecode.Compile memoizes one Program per module and concurrent
// machines (verifier workers resuming one snapshot) share it, so the
// marks cannot live in the program's words. Compiled frames test a
// per-function bitmap indexed by pc; tree frames, which only tests run,
// look the instruction up in a map.

// watchSet is one machine's watched instructions.
type watchSet struct {
	// bits[f] is the word bitmap of the function with FuncCode.Idx f,
	// nil until one of its words is watched.
	bits [][]uint64
	// instrs holds the watched instructions of a tree-walking machine.
	instrs map[*ir.Instr]bool
	// n counts watched instructions.
	n int
}

// Watch adds in to the watched set: from the next step on,
// Config.Breakpoint is called before any thread executes it. Phis and
// instructions of other modules are never executed as such and are
// ignored.
func (m *Machine) Watch(in *ir.Instr) { m.setWatch(in, true) }

// Unwatch removes in from the watched set.
func (m *Machine) Unwatch(in *ir.Instr) { m.setWatch(in, false) }

// WatchArrivals arms or disarms arrival watching. While armed, a thread
// that executes a branch back to an earlier (or the same) instruction
// of its function is marked arrived, and its next pick is watched:
// Config.Breakpoint is called then whatever the instruction, and
// Thread.Arrived reports the mark. The mark is cleared at that pick,
// even when it comes after arrivals were disarmed.
func (m *Machine) WatchArrivals(on bool) {
	m.arrivals = on
	m.marks = m.marks || on
	m.rewatch()
}

// Arrived reports whether the thread's latest executed instruction was
// a backward branch taken while arrivals were armed (see
// Machine.WatchArrivals) and it has not been picked since.
func (t *Thread) Arrived() bool { return t.arrived }

func (m *Machine) setWatch(in *ir.Instr, on bool) {
	ws := &m.watch
	if m.prog == nil {
		if in == nil || in.Fn == nil || in.Op == ir.OpPhi {
			return
		}
		if ws.instrs[in] == on {
			return
		}
		if ws.instrs == nil {
			ws.instrs = make(map[*ir.Instr]bool)
		}
		if on {
			ws.instrs[in] = true
			ws.n++
		} else {
			delete(ws.instrs, in)
			ws.n--
		}
		m.rewatch()
		return
	}
	fc, pc, ok := wordOf(m.prog, in)
	if !ok {
		return
	}
	if ws.bits == nil {
		ws.bits = make([][]uint64, len(m.prog.Funcs))
	}
	b := ws.bits[fc.Idx]
	if b == nil {
		if !on {
			return
		}
		b = make([]uint64, (len(fc.Code)+63)/64)
		ws.bits[fc.Idx] = b
	}
	mask := uint64(1) << (pc & 63)
	if (b[pc>>6]&mask != 0) == on {
		return
	}
	b[pc>>6] ^= mask
	if on {
		ws.n++
	} else {
		ws.n--
	}
	m.rewatch()
}

// An InstrSet is a set of a module's instructions prepared for watching
// in bulk: WatchSet adds or removes all of them at the cost of one pass
// over the compiled program's bitmaps, not one lookup per instruction.
// It is immutable and may be shared by concurrent machines.
type InstrSet struct {
	prog   *bytecode.Program
	bits   [][]uint64
	instrs []*ir.Instr
	set    map[*ir.Instr]bool
}

// Has reports whether thread t's next instruction is in s.
func (s *InstrSet) Has(t *Thread) bool {
	fr := t.Top()
	if fr == nil {
		return false
	}
	if fr.BC != nil && fr.Fn.Mod == s.prog.Mod {
		return wordIn(s.bits, fr) // fr.BC is the module's one lowering
	}
	return s.set[fr.Cur()]
}

// NewInstrSet prepares ins, instructions of the module prog lowers, for
// WatchSet.
func NewInstrSet(prog *bytecode.Program, ins []*ir.Instr) *InstrSet {
	s := &InstrSet{prog: prog, instrs: ins,
		bits: make([][]uint64, len(prog.Funcs)), set: make(map[*ir.Instr]bool, len(ins))}
	for _, in := range ins {
		s.set[in] = true
		fc, pc, ok := wordOf(prog, in)
		if !ok {
			continue
		}
		if s.bits[fc.Idx] == nil {
			s.bits[fc.Idx] = make([]uint64, (len(fc.Code)+63)/64)
		}
		s.bits[fc.Idx][pc>>6] |= 1 << (pc & 63)
	}
	return s
}

// WatchSet adds every instruction of s to the watched set (on) or
// removes every one (off).
func (m *Machine) WatchSet(s *InstrSet, on bool) {
	if m.prog == nil || m.prog != s.prog {
		for _, in := range s.instrs {
			m.setWatch(in, on)
		}
		return
	}
	ws := &m.watch
	if ws.bits == nil {
		ws.bits = make([][]uint64, len(m.prog.Funcs))
	}
	for f, sb := range s.bits {
		if sb == nil {
			continue
		}
		b := ws.bits[f]
		if b == nil {
			if !on {
				continue
			}
			b = make([]uint64, len(sb))
			ws.bits[f] = b
		}
		for i, x := range sb {
			old := b[i]
			if on {
				b[i] |= x
			} else {
				b[i] &^= x
			}
			ws.n += bits.OnesCount64(b[i]) - bits.OnesCount64(old)
		}
	}
	m.rewatch()
}

// wordOf returns the function and pc of in's word in prog; ok is false
// for instructions without one (phis, other modules).
func wordOf(prog *bytecode.Program, in *ir.Instr) (fc *bytecode.FuncCode, pc int, ok bool) {
	if in == nil || in.Fn == nil || in.Op == ir.OpPhi {
		return nil, 0, false
	}
	fc = prog.Funcs[in.Fn]
	if fc == nil || in.Index >= len(fc.PCofInstr) {
		return nil, 0, false
	}
	pc = fc.PCofInstr[in.Index]
	return fc, pc, fc.Instrs[pc] == in
}

// rewatch recomputes whether Step must test for watched picks.
func (m *Machine) rewatch() {
	m.watching = m.cfg.Breakpoint != nil && (m.watch.n > 0 || m.marks)
}

// wordIn reports whether the current word of compiled frame fr is set
// in set, a bitmap per function (nil or short where none is set).
func wordIn(set [][]uint64, fr *Frame) bool {
	if fr.BC.Idx >= len(set) {
		return false
	}
	b, pc := set[fr.BC.Idx], fr.FPC
	return pc>>6 < len(b) && b[pc>>6]&(1<<(pc&63)) != 0
}

// reset empties the set, keeping its bitmaps.
func (ws *watchSet) reset() {
	for _, b := range ws.bits {
		clear(b)
	}
	clear(ws.instrs)
	ws.n = 0
}
