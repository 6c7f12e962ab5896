// Package bytecode lowers frozen ir.Modules to a flat, cache-dense
// bytecode that internal/interp's compiled engine executes. The lowering
// happens once per module (memoized through ir.Module.LowerOnce) and
// pre-resolves everything the tree-walking interpreter re-derives per
// step: register names become dense slot indices, operands become 16-bit
// value references into per-function pools, phi nodes become per-edge
// parallel move lists, and common instruction sequences are marked as
// superinstructions the batched dispatch loop can run back-to-back.
//
// The compiled form is purely an acceleration structure: every word
// still corresponds to exactly one ir.Instr (Instrs maps pc -> instr),
// every word is independently executable, and the scheduler is still
// consulted once per instruction, so events, faults, schedule traces,
// and snapshots are byte-identical with the tree-walking oracle. See
// docs/BYTECODE.md for the full design.
package bytecode

import (
	"github.com/conanalysis/owl/internal/ir"
)

// FuncRefBase is the value of the first function reference. It must
// equal the interpreter's funcRefBase (internal/interp aliases its
// constant to this one) so that OpFunc/OperandGlobal operands naming
// module functions can be folded to constants at compile time.
const FuncRefBase = int64(1) << 40

// Instruction word layout (64 bits):
//
//	bits  0..7   opcode (Op* below)
//	bits  8..11  sub: ir.BinKind, ir.CmpPred, or the ret has-value flag
//	bits 12..15  fused: number of additional superinstruction component
//	             words following this one (0 = not a superinstruction head)
//	bits 16..31  dst: destination slot, edge index (OpBr then-edge, OpJmp),
//	             or call-site index (OpCall)
//	bits 32..47  a: value reference (OpLoadG: raw global ordinal)
//	bits 48..63  b: value reference, else-edge index (OpBr), or raw global
//	             ordinal (OpStoreG)
//
// Shift/mask helpers are deliberately just documented constants — the
// interpreter's dispatch loop decodes inline with shifts so the decode
// cost is a handful of register ops.
const (
	SubShift   = 8
	FusedShift = 12
	DstShift   = 16
	AShift     = 32
	BShift     = 48
	SubMask    = 0xf
	FusedMask  = 0xf
	DstMask    = 0xffff
)

// Opcodes. OpNop is the per-block sentinel word: it is never dispatched
// (its Instrs entry is nil, which the engine turns into the tree
// walker's "fell off end of block" fault before decoding).
const (
	OpNop byte = iota
	OpMove
	OpLoad
	OpLoadG
	OpStore
	OpStoreG
	OpBin
	OpCmp
	OpBr
	OpJmp
	OpRet
	OpAlloca
	OpGep
	OpCall
)

// Value references (the 16-bit a/b operand fields): a 2-bit tag and a
// 14-bit pool index. RefSlot and RefConst and RefGlobal never fault and
// never touch a map at runtime; RefOther falls back to the machine's
// operand evaluator, preserving the tree walker's lazy side effects
// (string interning, synthetic intrinsic reference ids) and its exact
// fault behavior for unresolvable operands.
const (
	RefSlot   = 0 // index into Frame.Slots
	RefConst  = 1 // index into FuncCode.Consts
	RefGlobal = 2 // module global ordinal; evaluates to its base address
	RefOther  = 3 // index into FuncCode.Others; evaluated by Machine.eval

	RefTagShift = 14
	RefIdxMask  = 0x3fff
	maxPool     = 1 << 14
)

// MakeRef builds a value reference from tag and pool index.
func MakeRef(tag, idx int) uint16 { return uint16(tag<<RefTagShift | idx) }

// Move is one precompiled phi assignment on a block edge: evaluate Src
// (a value reference) in the pre-transfer frame, store to slot Dst. All
// of an edge's moves are applied as a parallel copy, mirroring the tree
// walker's atomic block-entry phi evaluation.
type Move struct {
	Dst uint16
	Src uint16
}

// Edge is one precompiled control-flow transfer: the moves that realize
// the target block's phis for this particular predecessor, then a jump
// to the target's first word. Src and Idx let a frame record "this was
// the last edge taken" as a single integer store (no pointer write, so
// no GC write barrier on the hot path); the current and previous block
// are then derived on demand from the pc and the edge table.
type Edge struct {
	Target *ir.Block
	Src    *ir.Block
	PC     int
	Idx    int32
	Moves  []Move
}

// CallKind discriminates CallSite.
type CallKind uint8

// Call-site kinds, resolved at compile time from the callee operand.
const (
	CallFunc      CallKind = iota + 1 // direct call of a module function
	CallIntrinsic                     // direct call of an intrinsic (or unknown name)
	CallIndirect                      // call through a register
	CallBad                           // non-func, non-reg callee operand
	// CallLock/CallUnlock are the compile-time specializations of
	// single-argument mutex_lock/mutex_unlock calls: the interpreter
	// inlines the mutex logic, skipping argument-buffer and name
	// dispatch. Lock calls with any other arity compile as the generic
	// CallIntrinsic (the generic path evaluates every argument first,
	// and the specialized path must match that exactly).
	CallLock
	CallUnlock
)

// CallSite is a precompiled call: argument value references, the
// destination slot, and the resolved callee.
type CallSite struct {
	Kind       CallKind
	Fn         *ir.Func // CallFunc
	Name       string   // intrinsic name (CallIntrinsic) or callee register name (CallIndirect)
	CalleeSlot int      // CallIndirect: slot holding the function reference
	Args       []uint16
	DstSlot    int // slot receiving the result, -1 if none
}

// FuncCode is one function's compiled form.
type FuncCode struct {
	Fn *ir.Func

	// Code is the flat word array: all basic blocks in ir order, each
	// followed by one OpNop sentinel. Instrs maps each pc to the ir
	// instruction it executes (nil at sentinels) — the engine needs the
	// instruction anyway for events, faults, and breakpoints, so rare
	// fields (alloca names, positions) are read from it instead of
	// being encoded.
	Code   []uint64
	Instrs []*ir.Instr

	Consts []int64
	Others []ir.Operand
	Edges  []Edge
	Calls  []CallSite

	// Slot table: every register name the function defines or reads,
	// params first. Frames allocate NumSlots zeroed slots; a name the
	// tree walker would read as a missing map entry reads slot zero
	// value 0 identically.
	NumSlots   int
	SlotOf     map[string]int
	SlotNames  []string
	ParamSlots []int

	// EntryPC is the first word of the entry block (always 0, kept for
	// clarity). PCofInstr maps flat instruction indices (ir.Instr.Index)
	// to word pcs for snapshot restore; phis map to their block's first
	// word.
	EntryPC   int
	PCofInstr []int

	// BlockOfPC maps each word pc (sentinels included) to the block it
	// belongs to, so the engine never has to maintain a current-block
	// pointer at control transfers.
	BlockOfPC []*ir.Block

	// FusedHeads counts superinstruction heads emitted for the function.
	FusedHeads int
}

// StartPC returns the first word of block b.
func (fc *FuncCode) StartPC(b *ir.Block) int { return fc.PCofInstr[b.Instrs[0].Index] }

// EndPC returns block b's sentinel pc (the compiled equivalent of a tree
// frame whose PC ran past the block's end): the word after its
// terminator, which a frozen block always ends with.
func (fc *FuncCode) EndPC(b *ir.Block) int { return fc.PCofInstr[b.Instrs[len(b.Instrs)-1].Index] + 1 }

// Program is a module's compiled form.
type Program struct {
	Mod   *ir.Module
	Funcs map[*ir.Func]*FuncCode

	// CompileNS is the wall-clock nanoseconds the (once-per-module)
	// lowering took; exported as the bytecode.compile_ns metric.
	CompileNS int64
	// FusedHeads counts superinstruction heads across all functions.
	FusedHeads int
}
