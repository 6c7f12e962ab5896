package interp

import (
	"fmt"

	"github.com/conanalysis/owl/internal/bytecode"
	"github.com/conanalysis/owl/internal/callstack"
	"github.com/conanalysis/owl/internal/ir"
)

// ThreadID identifies a thread within one machine run. The main thread is
// always 0; spawned threads get increasing IDs in spawn order, which is
// deterministic for a fixed schedule.
type ThreadID int32

// ThreadStatus is a thread's scheduling state.
type ThreadStatus int

// Thread statuses.
const (
	StatusRunnable ThreadStatus = iota + 1
	StatusBlockedMutex
	StatusBlockedJoin
	StatusSleeping
	StatusDone
	StatusFaulted
)

func (s ThreadStatus) String() string {
	switch s {
	case StatusRunnable:
		return "runnable"
	case StatusBlockedMutex:
		return "blocked-mutex"
	case StatusBlockedJoin:
		return "blocked-join"
	case StatusSleeping:
		return "sleeping"
	case StatusDone:
		return "done"
	case StatusFaulted:
		return "faulted"
	default:
		return fmt.Sprintf("ThreadStatus(%d)", int(s))
	}
}

// Frame is one activation record. A frame belongs to exactly one
// engine: tree frames use Block/PC/Regs and keep Block/PrevBlock
// current at every transfer; compiled frames use BC/FPC/Slots and do
// NOT update Block/PrevBlock while running (Block stays at the value
// set on frame construction) — their current block is derived from
// FPC via BC.BlockOfPC and their previous block from prevEdge, which
// snapshotThread folds back into the canonical image.
type Frame struct {
	Fn        *ir.Func
	Block     *ir.Block
	PC        int // index into Block.Instrs
	PrevBlock string
	Regs      map[string]int64

	// BC/FPC/Slots are the compiled engine's frame state: the function's
	// bytecode, the program counter into BC.Code, and the dense register
	// file (BC.SlotOf maps names to indices). code aliases BC.Code so
	// the dispatch loop's fetch skips one pointer hop. prevEdge is the
	// index of the last edge taken (-1 if none): an integer stands in
	// for the tree engine's PrevBlock string so control transfers store
	// no pointers (and incur no GC write barriers).
	BC       *bytecode.FuncCode
	FPC      int
	Slots    []int64
	code     []uint64
	prevEdge int32
	// CallInstr is the call instruction in the caller that created this
	// frame (nil for the bottom frame); its Dst receives the return value.
	CallInstr *ir.Instr
	// Allocas tracks blocks allocated by alloca in this frame; freed on
	// return (function-lifetime storage).
	Allocas []*MemBlock

	// chain is the immutable call chain of this frame's callers: the
	// entries of every outer frame, which are fixed the moment the call
	// executes. Capturing a stack is then one StackRef copy (chain plus
	// the moving innermost position) instead of a per-event walk.
	chain *callstack.Node
}

// CurBlock returns the block the frame is executing. Engine-neutral,
// unlike reading Block directly: compiled frames derive the block from
// the pc (Block is not maintained while running, see above).
func (fr *Frame) CurBlock() *ir.Block {
	if fr.BC != nil {
		return fr.BC.BlockOfPC[fr.FPC]
	}
	return fr.Block
}

// Cur returns the instruction the frame is about to execute, or nil at
// end-of-block (which the verifier treats as malformed IR).
func (fr *Frame) Cur() *ir.Instr {
	if fr.BC != nil {
		// The pc is always in range: every block ends in a sentinel word
		// and execution faults there without advancing.
		return fr.BC.Instrs[fr.FPC]
	}
	if fr.Block == nil || fr.PC >= len(fr.Block.Instrs) {
		return nil
	}
	return fr.Block.Instrs[fr.PC]
}

// Thread is one thread of execution.
type Thread struct {
	ID     ThreadID
	Status ThreadStatus
	Frames []*Frame
	// top caches Frames[len(Frames)-1] (nil when empty) so the
	// dispatch loop reaches the active frame in one load instead of a
	// slice-header chase. Every site that grows or shrinks Frames
	// refreshes it.
	top *Frame

	// Suspended marks the thread halted by a thread-specific breakpoint
	// (§5.2): the rest of the machine keeps running. A suspended thread is
	// not offered to the scheduler until resumed.
	Suspended bool

	// WaitAddr is the mutex address for StatusBlockedMutex.
	WaitAddr int64
	// JoinTarget is the thread waited for in StatusBlockedJoin.
	JoinTarget ThreadID
	// SleepUntil is the machine step at which a sleeping thread wakes.
	SleepUntil int

	// Result is the thread's return value once done.
	Result int64

	// SpawnInstr is the call that created the thread (nil for main).
	SpawnInstr *ir.Instr

	// arrived marks a backward branch taken while the machine watched
	// arrivals (see Machine.WatchArrivals).
	arrived bool
	// imaged marks the machine's last snapshot image of the thread
	// (Machine.images) as current: cleared whenever the thread is picked
	// or its status changes.
	imaged bool
}

// Top returns the innermost frame, or nil if the thread has exited.
func (t *Thread) Top() *Frame { return t.top }

// Cur returns the instruction the thread would execute next, or nil.
func (t *Thread) Cur() *ir.Instr {
	fr := t.Top()
	if fr == nil {
		return nil
	}
	return fr.Cur()
}

// stackRef captures the thread's call stack as a zero-allocation
// handle: the top frame's immutable caller chain plus the currently
// executing function and position.
func (t *Thread) stackRef() StackRef {
	fr := t.Top()
	if fr == nil {
		return StackRef{}
	}
	return StackRef{chain: fr.chain, fn: fr.Fn, in: fr.Cur()}
}

// Stack captures the thread's call stack, outermost first. The innermost
// entry's position is the currently executing instruction, matching how
// TSAN and LLDB print stacks.
func (t *Thread) Stack() callstack.Stack {
	return t.stackRef().Materialize()
}

// Runnable reports whether the scheduler may pick this thread.
func (t *Thread) Runnable(step int) bool {
	if t.Suspended {
		return false
	}
	switch t.Status {
	case StatusRunnable:
		return true
	case StatusSleeping:
		return step >= t.SleepUntil
	default:
		return false
	}
}
