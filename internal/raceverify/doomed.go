package raceverify

import (
	"sync"

	"github.com/conanalysis/owl/internal/bytecode"
	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
)

// holdProof proves, while a racing instruction is held, that the hold
// can never end in a capture, so the attempt may give up at once instead
// of spinning until HoldBudget runs out.
//
// The proof looks at a window: the instructions executed since the held
// set last changed or the window was last voided. While nothing in the
// window has a side effect, memory, locks, thread set and intrinsic
// state are frozen, so each thread's future is a function of its own
// local state alone. A thread whose state repeats a state it had
// earlier in the window is therefore in a cycle it can never leave, and
// the cycle holds no racing instruction (reaching one voids the window).
// If every other live thread is in such a cycle or blocked on a mutex
// or join nobody can release, no thread can ever reach the partner
// instruction: the attempt can only end in the hold time-out, the step
// budget or a stall that is not StallSuspended — all of which return
// false. At least one thread must be cycling: with every other thread
// blocked, the run stalls and the verifier releases the breakpoint
// instead (§5.2's blocked livelock), so that case is not doomed.
//
// States are sampled when a thread arrives at an instruction through a
// backward branch taken while a thread is held (interp.Thread.Arrived).
// Every cycle takes one (in the outermost frame it runs in, the pc must
// come back), so a cycling thread repeats a sampled state within two
// turns of its loop. The comparison is the interpreter's
// interp.CycleLog, the one the machine's spin fast-forward uses. Only
// compiled frames are sampled; under the tree-walking engine the proof
// never fires.
//
// The proof acts only on the pair, on instructions with a side effect
// and on arrivals, so the attempt watches exactly those while a thread
// is held (attempt.arm): every other step leaves the proof as it was,
// and the machine's watched set drops them without moving the step at
// which a doomed hold is cut.
type holdProof struct {
	instrA, instrB *ir.Instr

	// heldA and heldB are the held set the window belongs to; epoch
	// numbers the window, so cycling marks from older windows are stale
	// without being cleared. armed records whether the machine watches
	// the proof's observation points.
	heldA, heldB interp.ThreadID
	epoch        int
	armed        bool

	// cycling[tid] == epoch once the thread repeated a sampled state in
	// this window. blocker is the thread that stopped the last settled
	// check, re-checked first next time.
	cycling []int
	blocker interp.ThreadID

	// log holds the window's samples (tagged with their step, which the
	// proof does not read).
	log interp.CycleLog

	// effects holds the module's instructions that may have a side
	// effect (see mayEffect).
	effects *interp.InstrSet
}

// proofs recycles proofs, and with them the buffers their windows grew.
var proofs = sync.Pool{New: func() any { return new(holdProof) }}

// newHoldProof returns a proof for the pair in a module with the given
// effect set, to hand back with release.
func newHoldProof(instrA, instrB *ir.Instr, fx *interp.InstrSet) *holdProof {
	p := proofs.Get().(*holdProof)
	p.log.Reset()
	*p = holdProof{
		instrA: instrA, instrB: instrB, heldA: -1, heldB: -1, epoch: 1, blocker: -1,
		cycling: p.cycling[:0], log: p.log, effects: fx,
	}
	return p
}

// release hands the proof back for reuse; p must not be used after.
func (p *holdProof) release() { proofs.Put(p) }

// observe sees thread t about to execute in, with heldA and heldB the
// current held set, and reports whether the hold is doomed.
func (p *holdProof) observe(m *interp.Machine, t *interp.Thread, in *ir.Instr, heldA, heldB interp.ThreadID) bool {
	if heldA != p.heldA || heldB != p.heldB {
		p.heldA, p.heldB = heldA, heldB
		p.void()
	}
	if heldA < 0 && heldB < 0 {
		return false
	}
	if in == p.instrA || in == p.instrB || p.sideEffect(t, in) {
		p.void()
		return false
	}
	if !t.Arrived() {
		return false
	}
	id := int(t.ID)
	for id >= len(p.cycling) {
		p.cycling = append(p.cycling, 0)
	}
	if p.cycling[id] != p.epoch {
		if _, ok := p.log.Repeat(t, m.StepCount()); !ok {
			return false
		}
		p.cycling[id] = p.epoch
	}
	return p.settled(m)
}

// void starts a new window.
func (p *holdProof) void() {
	p.epoch++
	p.log.Reset()
}

// sideEffect reports whether thread t executing in can change state
// other threads read, or make t's future depend on more than its own
// frames: stores, allocas, returns that end the thread or free
// allocas, and every call but user functions and the pure intrinsics.
func (p *holdProof) sideEffect(t *interp.Thread, in *ir.Instr) bool {
	if in.Op == ir.OpRet {
		return len(t.Frames) == 1 || len(t.Top().Allocas) > 0
	}
	return p.effects.Has(t)
}

// mayEffect reports whether in can have a side effect (see sideEffect)
// on some execution; every return may.
func mayEffect(mod *ir.Module, in *ir.Instr) bool {
	switch in.Op {
	case ir.OpStore, ir.OpAlloca, ir.OpRet:
		return true
	case ir.OpCall:
		c := in.Callee()
		if c.Kind != ir.OperandFunc {
			return true // indirect: the callee is only known at run time
		}
		if mod.Func(c.Name) != nil {
			return false // a user function: its instructions are observed one by one
		}
		switch c.Name {
		case "io_delay", "sleep", "yield", "thread_id", "getuid":
			return false
		}
		return true
	}
	return false
}

// moduleEffects returns mod's instructions that may have a side effect,
// prepared for watching: the words an armed proof watches. A batch
// computes it once; it is not kept on the module, so a server holding
// many programs does not hold it too.
func moduleEffects(mod *ir.Module) (*interp.InstrSet, error) {
	prog, err := bytecode.Compile(mod)
	if err != nil {
		return nil, err
	}
	var ins []*ir.Instr
	for _, f := range mod.Funcs {
		for _, in := range f.Instrs() {
			if mayEffect(mod, in) {
				ins = append(ins, in)
			}
		}
	}
	return interp.NewInstrSet(prog, ins), nil
}

// settled reports whether every live thread but the held ones is
// cycling or blocked. The caller has just seen a cycling thread, which
// supplies the "at least one" the proof needs.
func (p *holdProof) settled(m *interp.Machine) bool {
	if p.blocker >= 0 && !p.stuck(m.Thread(p.blocker)) {
		return false
	}
	for _, o := range m.Threads() {
		if !p.stuck(o) {
			p.blocker = o.ID
			return false
		}
	}
	return true
}

// stuck reports whether o can never reach a racing instruction while
// the window stays free of side effects.
func (p *holdProof) stuck(o *interp.Thread) bool {
	if o.ID == p.heldA || o.ID == p.heldB {
		return true
	}
	switch o.Status {
	case interp.StatusDone, interp.StatusFaulted, interp.StatusBlockedMutex, interp.StatusBlockedJoin:
		return true
	}
	return int(o.ID) < len(p.cycling) && p.cycling[o.ID] == p.epoch
}
