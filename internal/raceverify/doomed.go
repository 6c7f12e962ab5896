package raceverify

import (
	"slices"
	"sync"

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
// backward branch. Every cycle takes one (in the outermost frame it
// runs in, the pc must come back), so a cycling thread repeats a sampled
// state within two turns of its loop. Only compiled frames are sampled;
// under the tree-walking engine the proof never fires.
type holdProof struct {
	instrA, instrB *ir.Instr

	// heldA and heldB are the held set the window belongs to; epoch
	// numbers the window, so cycling marks from older windows are stale
	// without being cleared.
	heldA, heldB interp.ThreadID
	epoch        int

	// last is each thread's previous instruction; cycling[tid] == epoch
	// once the thread repeated a sampled state in this window. blocker
	// is the thread that stopped the last settled check, re-checked
	// first next time.
	last    []*ir.Instr
	cycling []int
	blocker interp.ThreadID

	// The window's samples. index maps a sample's key to its newest
	// sample; samples with the same key chain through prev. A key match
	// is only a candidate: the repeat is confirmed by comparing the stored
	// words and functions.
	index   map[stateKey]int32
	samples []sample
	words   []int64
	fns     []*ir.Func
}

// stateKey indexes samples: the thread, the instruction it is about to
// execute and a hash of its frames.
type stateKey struct {
	tid  interp.ThreadID
	at   *ir.Instr
	hash uint64
}

// sample is one recorded thread state: words[w0:w1] and fns[f0:f1].
type sample struct {
	w0, w1, f0, f1 int
	prev           int32
}

// proofs recycles proofs, and with them the buffers their windows grew.
var proofs = sync.Pool{New: func() any { return new(holdProof) }}

// newHoldProof returns a proof for the pair, to hand back with release.
func newHoldProof(instrA, instrB *ir.Instr) *holdProof {
	p := proofs.Get().(*holdProof)
	clear(p.index)
	*p = holdProof{
		instrA: instrA, instrB: instrB, heldA: -1, heldB: -1, epoch: 1, blocker: -1,
		last: p.last[:0], cycling: p.cycling[:0], index: p.index,
		samples: p.samples[:0], words: p.words[:0], fns: p.fns[:0],
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
	id := int(t.ID)
	for id >= len(p.last) {
		p.last = append(p.last, nil)
		p.cycling = append(p.cycling, 0)
	}
	prev := p.last[id]
	p.last[id] = in
	if in == p.instrA || in == p.instrB || sideEffect(m, t, in) {
		p.void()
		return false
	}
	if prev == nil || (prev.Op != ir.OpBr && prev.Op != ir.OpJmp) || prev.Fn != in.Fn || in.Index > prev.Index {
		return false
	}
	if p.cycling[id] != p.epoch {
		if !p.repeats(t, in) {
			return false
		}
		p.cycling[id] = p.epoch
	}
	return p.settled(m)
}

// void starts a new window.
func (p *holdProof) void() {
	p.epoch++
	if len(p.samples) > 0 {
		clear(p.index)
		p.samples, p.words, p.fns = p.samples[:0], p.words[:0], p.fns[:0]
	}
}

// sideEffect reports whether executing in can change state other
// threads read, or make this thread's future depend on more than its
// own frames: stores, allocas, returns that end the thread or free
// allocas, and every call but user functions and the pure intrinsics.
func sideEffect(m *interp.Machine, t *interp.Thread, in *ir.Instr) bool {
	switch in.Op {
	case ir.OpStore, ir.OpAlloca:
		return true
	case ir.OpRet:
		return len(t.Frames) == 1 || len(t.Top().Allocas) > 0
	case ir.OpCall:
		c := in.Callee()
		if c.Kind != ir.OperandFunc {
			return true // indirect: the callee is only known at run time
		}
		if m.Mod().Func(c.Name) != nil {
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

// repeats records t's state and reports whether it equals a state t
// had earlier in the window.
func (p *holdProof) repeats(t *interp.Thread, in *ir.Instr) bool {
	for _, fr := range t.Frames {
		if fr.BC == nil {
			return false
		}
	}
	w0, f0 := len(p.words), len(p.fns)
	for _, fr := range t.Frames {
		// The pc and slots are the frame's whole local state: prevEdge
		// only names the previous block for snapshots and steers nothing.
		p.fns = append(p.fns, fr.Fn)
		p.words = append(p.words, int64(fr.FPC), int64(len(fr.Slots)))
		p.words = append(p.words, fr.Slots...)
		p.words = append(p.words, int64(len(fr.Allocas)))
		for _, b := range fr.Allocas {
			p.words = append(p.words, b.Base)
		}
	}
	w1, f1 := len(p.words), len(p.fns)
	hash := uint64(14695981039346656037)
	for _, w := range p.words[w0:] {
		hash = (hash ^ uint64(w)) * 1099511628211
	}
	key := stateKey{tid: t.ID, at: in, hash: hash}
	if p.index == nil {
		p.index = make(map[stateKey]int32)
	}
	head, ok := p.index[key]
	for i := head; ok && i >= 0; i = p.samples[i].prev {
		s := p.samples[i]
		if slices.Equal(p.words[s.w0:s.w1], p.words[w0:w1]) && slices.Equal(p.fns[s.f0:s.f1], p.fns[f0:f1]) {
			p.words, p.fns = p.words[:w0], p.fns[:f0]
			return true
		}
	}
	if !ok {
		head = -1
	}
	p.index[key] = int32(len(p.samples))
	p.samples = append(p.samples, sample{w0: w0, w1: w1, f0: f0, f1: f1, prev: head})
	return false
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
