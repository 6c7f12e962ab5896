package interp

import (
	"fmt"

	"github.com/conanalysis/owl/internal/callstack"
	"github.com/conanalysis/owl/internal/ir"
)

// EventKind classifies runtime events delivered to observers (race
// detectors, tracers, verifiers).
type EventKind int

// Event kinds. Read/Write are plain shared-memory accesses; Acquire and
// Release are lock operations (and, after OWL's ad-hoc sync annotation,
// also annotated loads/stores — the annotation happens in the detector,
// not here); Spawn/Join create happens-before edges; Branch reports a
// conditional branch outcome (consumed by the vulnerability verifier's
// divergence analysis).
const (
	EvRead EventKind = iota + 1
	EvWrite
	EvAcquire
	EvRelease
	EvSpawn
	EvJoin
	EvAlloc
	EvFree
	EvBranch
	EvCall
	EvRet

	evKindCount // array bound for per-kind tables
)

var eventNames = map[EventKind]string{
	EvRead: "read", EvWrite: "write", EvAcquire: "acquire",
	EvRelease: "release", EvSpawn: "spawn", EvJoin: "join",
	EvAlloc: "alloc", EvFree: "free", EvBranch: "branch",
	EvCall: "call", EvRet: "ret",
}

func (k EventKind) String() string {
	if s, ok := eventNames[k]; ok {
		return s
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// StackRef is a zero-allocation handle on a thread's call stack at one
// instruction: the immutable caller chain (shared with the thread's
// frames) plus the innermost function and instruction, whose position
// is the innermost entry's (none at an end of block). Capturing one is
// three word copies, so the machine attaches a ref to every event that
// any observer declared interest in; materializing the full
// callstack.Stack is deferred to the rare consumer that actually prints
// or analyzes it (a race report, a watched read). Refs are kept by the
// race detector's shadow memory for every address, so they stay small.
type StackRef struct {
	chain *callstack.Node
	fn    *ir.Func
	in    *ir.Instr
}

// IsZero reports whether the ref captures nothing (no stack was
// requested for the event, or the thread had no frames).
func (r StackRef) IsZero() bool { return r.fn == nil && r.chain == nil }

// Depth returns the number of frames the materialized stack would have.
func (r StackRef) Depth() int {
	if r.IsZero() {
		return 0
	}
	return r.chain.Depth() + 1
}

// Materialize builds the callstack.Stack the ref denotes. The result is
// freshly allocated (outer entries may share the chain's cached prefix
// backing) and must be treated as read-only, like every stack the
// interpreter hands out.
func (r StackRef) Materialize() callstack.Stack {
	if r.IsZero() {
		return nil
	}
	pos := ir.Pos{}
	if r.in != nil {
		pos = r.in.Pos
	}
	return r.chain.Materialize(callstack.Entry{Fn: r.fn.Name, Pos: pos})
}

// Event is one runtime event.
type Event struct {
	Kind  EventKind
	TID   ThreadID
	Addr  int64 // accessed address / lock address
	Val   int64 // value read or written; branch: 1=then 0=else
	Aux   int64 // spawn/join: peer thread id; alloc: size
	Instr *ir.Instr
	Step  int

	// sref is the lazily materializable call-stack handle. It is only
	// populated when some observer declared (via StackPolicy) that it
	// needs stacks for this event kind; capture is O(1) and
	// allocation-free either way.
	sref StackRef
}

// StackRef returns the event's call-stack handle. It is the zero ref
// when no attached observer declared a need for stacks of this kind.
// Observers may retain it; materialize with StackRef.Materialize or,
// memoized per step, with Machine.EventStack.
func (e Event) StackRef() StackRef { return e.sref }

// IsAccess reports whether the event is a plain memory access.
func (e Event) IsAccess() bool { return e.Kind == EvRead || e.Kind == EvWrite }

func (e Event) String() string {
	loc := "?"
	if e.Instr != nil {
		loc = e.Instr.Loc()
	}
	return fmt.Sprintf("[step %d] t%d %s addr=0x%x val=%d %s", e.Step, e.TID, e.Kind, e.Addr, e.Val, loc)
}

// Observer consumes runtime events. Observers run synchronously inside the
// interpreter step, so they see a totally ordered event stream. The
// event points at the machine's scratch event, which the next emission
// overwrites: an observer reads it during the call, and must neither
// modify it nor keep the pointer (copy the fields it needs).
type Observer interface {
	OnEvent(m *Machine, e *Event)
}

// StackPolicy is an optional refinement of Observer: implementations
// declare which event kinds they need call stacks for, and the machine
// skips stack capture entirely for kinds no observer wants. Observers
// that do not implement it are conservatively assumed to need stacks
// for every kind. An observer that returned false for a kind must not
// materialize that event's stack.
type StackPolicy interface {
	NeedsStack(k EventKind) bool
}

// SwitchObserver is notified at every context switch the scheduler
// performs: fromInstr is the last instruction the outgoing thread
// executed, toInstr the instruction the incoming thread is about to
// execute. Unlike Observer it fires at instruction granularity (not just
// at event-emitting instructions) and costs nothing when no switch
// observer is attached, so it is the feed for lightweight schedule
// instrumentation such as the interleaving-coverage map behind
// coverage-guided exploration. Switch observers attach via
// Config.SwitchObservers and run synchronously inside Step, before the
// incoming instruction executes.
type SwitchObserver interface {
	OnSwitch(m *Machine, from, to ThreadID, fromInstr, toInstr *ir.Instr)
}

// ObserverFunc adapts a function to Observer.
type ObserverFunc func(m *Machine, e *Event)

// OnEvent implements Observer.
func (f ObserverFunc) OnEvent(m *Machine, e *Event) { f(m, e) }
