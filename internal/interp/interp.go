// Package interp executes OWL IR deterministically. Threads are explicit
// state machines; a pluggable scheduler chooses which thread executes the
// next instruction, so a recorded schedule replays exactly — the property
// that OWL's dynamic race verifier (§5.2) and vulnerability verifier
// (§6.2) rely on, standing in for LLDB's thread-specific breakpoints on
// native code.
//
// Memory is a bounds- and lifetime-checked arena (see Arena) so that the
// consequences the paper's attacks produce — buffer overflows, NULL
// pointer and NULL function-pointer dereferences, use-after-free, double
// free — surface as typed faults the attack oracles can observe.
package interp

import (
	"errors"
	"fmt"

	"github.com/conanalysis/owl/internal/bytecode"
	"github.com/conanalysis/owl/internal/callstack"
	"github.com/conanalysis/owl/internal/ir"
)

// Engine selects how a machine executes instructions. Both engines are
// observationally identical — same events, faults, output, schedule
// traces, and step counts for the same scheduler decisions. Production
// always runs the compiled engine; the tree walker is the differential
// oracle tests select (see internal/race's engine-differential tests).
type Engine string

// Engines.
const (
	// EngineTree walks the ir tree directly: simple, obviously correct,
	// the reference semantics. Only tests select it.
	EngineTree Engine = "tree"
	// EngineBytecode (also selected by the empty string) executes the
	// flat bytecode lowered once per module by internal/bytecode:
	// pre-resolved operands, per-edge phi move lists, superinstruction
	// batching — several times faster.
	EngineBytecode Engine = "bytecode"
)

// Scheduler picks the next thread to run. Implementations live in
// internal/sched; the interface is defined here so the machine does not
// depend on concrete strategies.
type Scheduler interface {
	// Next returns one element of runnable (which is non-empty and sorted
	// ascending). step is the machine's global step counter.
	Next(runnable []ThreadID, step int) ThreadID
}

// PlanningScheduler is an optional Scheduler extension that lets the
// compiled engine batch its per-step consultations. Plan writes the
// choices the next len(buf) Next calls would make — assuming the
// runnable set stays exactly `runnable` and step increments by one per
// call — into buf WITHOUT advancing scheduler state, returning how
// many entries it planned (0 disables the fast path for this window).
// Advance then applies the state change of the first k of those calls.
// The engine commits exactly the prefix it executed, so a batch cut
// short by a status transition (block, wake, spawn, exit, fault)
// leaves the scheduler in precisely the state per-step Next calls
// would have produced: Plan + Advance(k) must be observably identical
// to k Next calls for every k ≤ the planned count.
type PlanningScheduler interface {
	Scheduler
	Plan(runnable []ThreadID, step int, buf []ThreadID) int
	Advance(runnable []ThreadID, step, k int)
}

// BPAction is a breakpoint handler's decision.
type BPAction int

// Breakpoint actions.
const (
	BPContinue BPAction = iota + 1
	BPSuspend
)

// BreakpointFunc inspects the instruction a thread is about to execute and
// may suspend just that thread ("thread-specific breakpoints", §5.2).
type BreakpointFunc func(m *Machine, t *Thread, in *ir.Instr) BPAction

// Config configures a machine run.
type Config struct {
	Module *ir.Module
	// Entry is the entry function name (default "main").
	Entry string
	// Args are passed to the entry function's parameters.
	Args []int64
	// Inputs is the program-input tape consumed by the input() intrinsic;
	// this is how OWL's "subtle program inputs" reach a workload.
	Inputs []int64
	Sched  Scheduler
	// MaxSteps bounds execution (default 1_000_000).
	MaxSteps  int
	Observers []Observer
	// SwitchObservers are notified at every context switch (see
	// SwitchObserver); kept separate from Observers so attaching one does
	// not put a per-event callback on the hot path.
	SwitchObservers []SwitchObserver
	// Breakpoint, when set, is consulted before each instruction.
	Breakpoint BreakpointFunc
	// HaltOnFault stops the whole machine at the first fault (default:
	// only the faulting thread halts, as with a per-thread crash handler).
	HaltOnFault bool
	// Engine selects the execution engine ("" means EngineBytecode).
	Engine Engine
}

// StallReason says why Step could make no progress.
type StallReason int

// Stall reasons.
const (
	StallNone      StallReason = iota // machine progressed or finished
	StallDone                         // all threads done/faulted
	StallDeadlock                     // live threads, all blocked on sync
	StallSuspended                    // progress blocked only by suspended threads
)

func (s StallReason) String() string {
	switch s {
	case StallNone:
		return "none"
	case StallDone:
		return "done"
	case StallDeadlock:
		return "deadlock"
	case StallSuspended:
		return "suspended"
	default:
		return fmt.Sprintf("StallReason(%d)", int(s))
	}
}

// Result summarizes a run.
type Result struct {
	ExitCode int
	Steps    int
	Faults   []*Fault
	Output   []string
	// Schedule is the sequence of thread choices taken; replaying it with
	// sched.NewReplay reproduces the run exactly.
	Schedule []ThreadID
	// Stall records why the run ended.
	Stall StallReason
	// UID is the process uid at end of run (0 = root); attack oracles use
	// it to detect privilege escalation.
	UID int64
	// MaxStepsHit reports the run was truncated.
	MaxStepsHit bool
}

// ErrNoScheduler is returned by New when cfg.Sched is nil.
var ErrNoScheduler = errors.New("interp: config has no scheduler")

// DefaultMaxSteps is the execution bound applied when Config.MaxSteps
// is zero. Exported so layers that reason about the bound without
// building a machine (sched.SnapCache's resume-depth check) agree with
// the interpreter.
const DefaultMaxSteps = 1_000_000

// funcRefBase aliases the bytecode package's constant so compile-time
// folded function references agree with the ones eval hands out.
const funcRefBase = bytecode.FuncRefBase

// Machine executes one program instance.
type Machine struct {
	cfg  Config
	mod  *ir.Module
	mem  *Arena
	fs   *FS
	step int

	threads     []*Thread
	live        []*Thread // threads not yet done/faulted (lazily compacted)
	trace       []ThreadID
	runnableBuf []ThreadID

	globals map[string]int64 // global name -> base address
	funcIDs map[string]int64 // function name -> func ref value
	funcs   []*ir.Func       // index -> function
	interns map[string]int64 // string literal -> address

	// locks is the held-mutex table. Programs hold a handful of locks at
	// a time, so a linear-scan slice beats a map on the lock/unlock hot
	// path (no hashing, no tombstones; release swaps with the last entry).
	locks          []lockEntry
	intrinsicByRef map[int64]string // synthetic func-ref id -> intrinsic name

	inputPos  int
	uid       int64
	output    []string
	faults    []*Fault
	execLog   []string
	forkCount int
	exited    bool
	exitCode  int

	rngState uint64 // deterministic per-machine PRNG for rand intrinsic
	hasObs   bool   // skip event construction entirely when nobody listens

	// hasSwitch gates the context-switch bookkeeping below so the hot
	// path pays nothing when no SwitchObserver is attached.
	hasSwitch bool
	prevTID   ThreadID
	prevInstr *ir.Instr

	// needStack[k] records whether any observer declared (via the
	// StackPolicy interface) that it needs call stacks for event kind k;
	// emit only captures a StackRef for kinds somebody wants.
	needStack [evKindCount]bool

	// phiBuf and argBuf are reused scratch buffers for block-entry phi
	// evaluation and call-argument evaluation, keeping the interpreter
	// hot path allocation-free.
	phiBuf []phiUpdate
	argBuf []int64

	// Compiled-engine state (nil/unused under EngineTree). globalBase
	// and globalBlock are indexed by module global ordinal so RefGlobal
	// operands and loadg/storeg words skip the name map and the arena's
	// address search; the block pointers are stable for the machine's
	// lifetime (globals are never freed). moveBuf is the edge-move
	// scratch buffer (the compiled twin of phiBuf). superinstrHits
	// counts fully-batched superinstructions.
	prog           *bytecode.Program
	globalBase     []int64
	globalBlock    []*MemBlock
	moveBuf        []int64
	superinstrHits int64

	// planBuf holds scheduler choices pre-planned by a
	// PlanningScheduler; planSize adapts the window to how much of the
	// last plan survived before a status transition cut it short.
	planBuf  []ThreadID
	planSize int

	// schedDirty/anySleeping let the batched dispatch loop reuse
	// runnableBuf across steps: every status transition marks the set
	// dirty, and any sleeping thread forces recomputation because the
	// mere advance of the clock can wake it.
	schedDirty  bool
	anySleeping bool

	// stackMemo caches the last materialized event stack per (step,
	// thread) so several observers of one event share one allocation.
	stackMemoStep int
	stackMemoTID  ThreadID
	stackMemo     callstack.Stack
}

type phiUpdate struct {
	dst string
	val int64
}

// lockEntry is one held mutex in the machine's lock table.
type lockEntry struct {
	addr  int64
	owner ThreadID
}

// lockOwner reports the holder of the mutex at addr, if held.
func (m *Machine) lockOwner(addr int64) (ThreadID, bool) {
	for i := range m.locks {
		if m.locks[i].addr == addr {
			return m.locks[i].owner, true
		}
	}
	return 0, false
}

// lockAcquire records tid as the holder of the mutex at addr.
func (m *Machine) lockAcquire(addr int64, tid ThreadID) {
	m.locks = append(m.locks, lockEntry{addr: addr, owner: tid})
}

// lockRelease drops the mutex at addr from the table.
func (m *Machine) lockRelease(addr int64) {
	for i := range m.locks {
		if m.locks[i].addr == addr {
			last := len(m.locks) - 1
			m.locks[i] = m.locks[last]
			m.locks = m.locks[:last]
			return
		}
	}
}

// New builds a machine for the given configuration. The module must be
// frozen.
func New(cfg Config) (*Machine, error) {
	if cfg.Module == nil || !cfg.Module.Frozen() {
		return nil, errors.New("interp: module missing or not frozen")
	}
	if cfg.Sched == nil {
		return nil, ErrNoScheduler
	}
	if cfg.Entry == "" {
		cfg.Entry = "main"
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = DefaultMaxSteps
	}
	entry := cfg.Module.Func(cfg.Entry)
	if entry == nil {
		return nil, fmt.Errorf("interp: entry function @%s not found", cfg.Entry)
	}
	prog, err := compileFor(cfg.Engine, cfg.Module)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		prog:          prog,
		schedDirty:    true,
		cfg:           cfg,
		mod:           cfg.Module,
		mem:           NewArena(),
		fs:            NewFS(),
		globals:       make(map[string]int64),
		funcIDs:       make(map[string]int64),
		interns:       make(map[string]int64),
		hasObs:        len(cfg.Observers) > 0,
		hasSwitch:     len(cfg.SwitchObservers) > 0,
		prevTID:       -1,
		uid:           1000, // unprivileged by default; setuid(0) is the attack
		rngState:      0x9e3779b97f4a7c15,
		stackMemoStep: -1,
		trace:         make([]ThreadID, 0, traceCap(cfg.MaxSteps)),
	}
	for _, o := range cfg.Observers {
		sp, declared := o.(StackPolicy)
		for k := EvRead; k < evKindCount; k++ {
			if !declared || sp.NeedsStack(k) {
				m.needStack[k] = true
			}
		}
	}
	for _, g := range cfg.Module.Globals {
		b := m.mem.Alloc(int64(g.Size), BlockGlobal, "@"+g.Name, nil)
		if len(g.InitWords) > 0 {
			copy(b.Words, g.InitWords)
		} else {
			b.Words[0] = g.Init
		}
		m.globals[g.Name] = b.Base
	}
	for i, f := range cfg.Module.Funcs {
		m.funcIDs[f.Name] = funcRefBase + int64(i)
		m.funcs = append(m.funcs, f)
	}
	if m.prog != nil {
		m.initGlobalTables()
	}
	main := m.newThread(entry, cfg.Args, nil)
	_ = main
	return m, nil
}

// compileFor returns the module's memoized bytecode lowering for the
// compiled engine, or nil under EngineTree.
func compileFor(eng Engine, mod *ir.Module) (*bytecode.Program, error) {
	switch eng {
	case "", EngineBytecode:
		prog, err := bytecode.Compile(mod)
		if err != nil {
			return nil, fmt.Errorf("interp: %w", err)
		}
		return prog, nil
	case EngineTree:
		return nil, nil
	default:
		return nil, fmt.Errorf("interp: unknown engine %q", eng)
	}
}

// initGlobalTables builds the compiled engine's ordinal-indexed global
// address and block tables (after the arena holds every global).
func (m *Machine) initGlobalTables() {
	gs := m.mod.Globals
	m.globalBase = make([]int64, len(gs))
	m.globalBlock = make([]*MemBlock, len(gs))
	for i, g := range gs {
		addr := m.globals[g.Name]
		m.globalBase[i] = addr
		m.globalBlock[i] = m.mem.Find(addr)
	}
}

// Engine returns the engine the machine executes with.
func (m *Machine) Engine() Engine {
	if m.prog != nil {
		return EngineBytecode
	}
	return EngineTree
}

// SuperinstrHits returns how many superinstructions the compiled
// engine completed as a single batch (0 under EngineTree). The count
// is a dispatch statistic, not part of the captured execution state:
// it is not carried across Snapshot/Restore, so resumed runs only
// count their own suffix.
func (m *Machine) SuperinstrHits() int64 { return m.superinstrHits }

// CompileNS returns the module-lowering wall-clock nanoseconds when
// running compiled (0 under EngineTree). The lowering is memoized per
// module, so concurrent machines report the same one-time cost.
func (m *Machine) CompileNS() int64 {
	if m.prog == nil {
		return 0
	}
	return m.prog.CompileNS
}

// Mod returns the module under execution.
func (m *Machine) Mod() *ir.Module { return m.mod }

// Mem returns the machine's arena (verifier/oracle introspection).
func (m *Machine) Mem() *Arena { return m.mem }

// FS returns the machine's file system model.
func (m *Machine) FS() *FS { return m.fs }

// UID returns the current process uid.
func (m *Machine) UID() int64 { return m.uid }

// StepCount returns the number of executed steps so far.
func (m *Machine) StepCount() int { return m.step }

// Output returns the lines printed so far.
func (m *Machine) Output() []string { return m.output }

// Faults returns the faults recorded so far.
func (m *Machine) Faults() []*Fault { return m.faults }

// Threads returns the machine's threads (do not mutate).
func (m *Machine) Threads() []*Thread { return m.threads }

// Thread returns the thread with the given id, or nil.
func (m *Machine) Thread(id ThreadID) *Thread {
	if int(id) < 0 || int(id) >= len(m.threads) {
		return nil
	}
	return m.threads[id]
}

// GlobalAddr returns the address of a global, or 0.
func (m *Machine) GlobalAddr(name string) int64 { return m.globals[name] }

// FuncForRef resolves a function-reference value, or nil.
func (m *Machine) FuncForRef(v int64) *ir.Func {
	idx := v - funcRefBase
	if idx < 0 || idx >= int64(len(m.funcs)) {
		return nil
	}
	return m.funcs[idx]
}

// FuncRef returns the function-reference value for a named module function
// (0 if absent) — used by tests and workload setup.
func (m *Machine) FuncRef(name string) int64 { return m.funcIDs[name] }

func (m *Machine) newThread(fn *ir.Func, args []int64, spawn *ir.Instr) *Thread {
	var fr *Frame
	if m.prog != nil {
		fc := m.prog.Funcs[fn]
		fr = &Frame{Fn: fn, Block: fn.Entry(), BC: fc, code: fc.Code,
			FPC: fc.EntryPC, Slots: make([]int64, fc.NumSlots), prevEdge: -1}
		for i, s := range fc.ParamSlots {
			if i < len(args) {
				fr.Slots[s] = args[i]
			}
		}
	} else {
		fr = &Frame{Fn: fn, Block: fn.Entry(), Regs: make(map[string]int64, 8)}
		for i, p := range fn.Params {
			if i < len(args) {
				fr.Regs[p] = args[i]
			} else {
				fr.Regs[p] = 0
			}
		}
	}
	t := &Thread{ID: ThreadID(len(m.threads)), Status: StatusRunnable,
		Frames: []*Frame{fr}, top: fr, SpawnInstr: spawn}
	m.threads = append(m.threads, t)
	m.live = append(m.live, t)
	m.schedDirty = true
	if fr.BC == nil {
		// Entry-block phis read the zeroed register state; compiled frames
		// start with zeroed slots, so their entry edge needs no moves.
		m.enterBlock(t, fn.Entry(), "")
	}
	return t
}

// enterBlock transfers control to blk, evaluating its leading phi nodes
// atomically (all reads against the pre-transfer register state).
func (m *Machine) enterBlock(t *Thread, blk *ir.Block, from string) {
	fr := t.Top()
	fr.PrevBlock = from
	fr.Block = blk
	fr.PC = 0
	// Evaluate leading phis against a snapshot (scratch buffer reused
	// across calls — block entry is on the interpreter hot path).
	updates := m.phiBuf[:0]
	for _, in := range blk.Instrs {
		if in.Op != ir.OpPhi {
			break
		}
		v := int64(0)
		found := false
		for _, pe := range in.Phis {
			if pe.Block == from {
				v, _ = m.eval(t, pe.Val)
				found = true
				break
			}
		}
		if !found && from != "" {
			// No matching edge: LLVM would call this malformed; we use 0.
			v = 0
		}
		updates = append(updates, phiUpdate{in.Dst, v})
		fr.PC++
	}
	for _, u := range updates {
		fr.Regs[u.dst] = u.val
	}
	m.phiBuf = updates[:0]
}

func (m *Machine) emit(e Event) {
	e.Step = m.step
	if m.needStack[e.Kind] {
		// Capture is a handle copy, not a snapshot: the caller chain is
		// immutable and the innermost position is the emitting
		// instruction (every emit site runs before the PC advances).
		e.sref = m.threads[e.TID].stackRef()
	}
	for _, o := range m.cfg.Observers {
		o.OnEvent(m, e)
	}
}

// EventStack materializes the event's call stack, memoized per (step,
// thread) so several observers of the same event share one allocation.
// It returns nil when no observer declared a need for stacks of the
// event's kind (see StackPolicy). The result must be treated as
// read-only.
func (m *Machine) EventStack(e Event) callstack.Stack {
	if e.sref.IsZero() {
		return nil
	}
	if m.stackMemoStep == e.Step && m.stackMemoTID == e.TID && m.stackMemo != nil {
		return m.stackMemo
	}
	st := e.sref.Materialize()
	m.stackMemoStep, m.stackMemoTID, m.stackMemo = e.Step, e.TID, st
	return st
}

func (m *Machine) fault(t *Thread, in *ir.Instr, f *Fault) {
	f.TID = t.ID
	f.Instr = in
	f.Stack = t.Stack()
	f.Step = m.step
	m.faults = append(m.faults, f)
	t.Status = StatusFaulted
	m.schedDirty = true
	m.wakeJoiners(t)
	if m.cfg.HaltOnFault {
		m.exited = true
		m.exitCode = 139
	}
}

// eval evaluates a non-label operand in the thread's top frame.
func (m *Machine) eval(t *Thread, o ir.Operand) (int64, *Fault) {
	switch o.Kind {
	case ir.OperandConst:
		return o.Imm, nil
	case ir.OperandReg:
		fr := t.Top()
		if fr.Slots != nil {
			if s, ok := fr.BC.SlotOf[o.Name]; ok {
				return fr.Slots[s], nil
			}
			return 0, nil // a name the tree walker would read as a missing map entry
		}
		return fr.Regs[o.Name], nil
	case ir.OperandGlobal:
		if a, ok := m.globals[o.Name]; ok {
			return a, nil
		}
		// "@name" in an argument position may also denote a function
		// reference (e.g. call @spawn(@worker)): resolve like OperandFunc.
		return m.eval(t, ir.FuncOp(o.Name))
	case ir.OperandFunc:
		if v, ok := m.funcIDs[o.Name]; ok {
			return v, nil
		}
		// Intrinsic reference: give it a synthetic id above all module
		// functions so indirect calls to intrinsics also work.
		if isIntrinsic(o.Name) {
			id := funcRefBase + int64(len(m.funcs))
			m.funcs = append(m.funcs, nil) // placeholder
			m.funcIDs[o.Name] = id
			m.intrinsicRefs(id, o.Name)
			return id, nil
		}
		return 0, &Fault{Kind: FaultUnknownIntrinsic, Msg: "@" + o.Name}
	case ir.OperandString:
		return m.intern(o.Str), nil
	default:
		return 0, &Fault{Kind: FaultBadCall, Msg: fmt.Sprintf("cannot evaluate operand %s", o)}
	}
}

func (m *Machine) intrinsicRefs(id int64, name string) {
	if m.intrinsicByRef == nil {
		m.intrinsicByRef = make(map[int64]string)
	}
	m.intrinsicByRef[id] = name
}

// intern returns the address of a global block holding the string.
func (m *Machine) intern(s string) int64 {
	if a, ok := m.interns[s]; ok {
		return a
	}
	words := ir.StringToWords(s)
	b := m.mem.Alloc(int64(len(words)), BlockGlobal, fmt.Sprintf("str%q", s), nil)
	copy(b.Words, words)
	m.interns[s] = b.Base
	return b.Base
}

// runnableIDs returns the ids of threads the scheduler may pick, ascending
// (m.threads is already ID-ordered). The returned slice is a reused buffer
// valid until the next call.
func (m *Machine) runnableIDs() []ThreadID {
	ids := m.runnableBuf[:0]
	live := m.live[:0]
	sleeping := false
	for _, t := range m.live {
		switch t.Status {
		case StatusDone, StatusFaulted:
			continue // drop from the live list
		case StatusSleeping:
			sleeping = true
		}
		live = append(live, t)
		if t.Runnable(m.step) {
			ids = append(ids, t.ID)
		}
	}
	m.live = live
	m.runnableBuf = ids
	m.schedDirty = false
	m.anySleeping = sleeping
	return ids
}

// runnableCached returns the runnable set, recomputing only when a
// status transition happened since the last scan or a sleeping thread
// could be woken by the clock alone.
func (m *Machine) runnableCached() []ThreadID {
	if m.schedDirty || m.anySleeping {
		return m.runnableIDs()
	}
	return m.runnableBuf
}

// LastScheduled returns the id of the thread that executed the most recent
// step, if any.
func (m *Machine) LastScheduled() (ThreadID, bool) {
	if len(m.trace) == 0 {
		return 0, false
	}
	return m.trace[len(m.trace)-1], true
}

// Stall reports the current stall state without executing anything.
func (m *Machine) Stall() StallReason {
	if m.exited {
		return StallDone
	}
	if len(m.runnableIDs()) > 0 {
		return StallNone
	}
	anyLive, anySuspended := false, false
	for _, t := range m.threads {
		switch t.Status {
		case StatusDone, StatusFaulted:
			continue
		}
		if t.Status == StatusSleeping && !t.Suspended {
			return StallNone // clock can still advance
		}
		anyLive = true
		if t.Suspended {
			anySuspended = true
		}
	}
	switch {
	case !anyLive:
		return StallDone
	case anySuspended:
		return StallSuspended
	default:
		return StallDeadlock
	}
}

// Step executes one instruction (or suspends a thread at a breakpoint).
// It returns false when no thread is runnable; call Stall for the reason.
func (m *Machine) Step() bool {
	if m.exited || m.step >= m.cfg.MaxSteps {
		return false
	}
	runnable := m.runnableIDs()
	if len(runnable) == 0 {
		// If every live thread is merely sleeping (io_delay), advance the
		// clock to the earliest wake-up instead of declaring a stall.
		wake := -1
		for _, t := range m.threads {
			if t.Status == StatusSleeping && !t.Suspended {
				if wake < 0 || t.SleepUntil < wake {
					wake = t.SleepUntil
				}
			}
		}
		if wake < 0 || wake > m.cfg.MaxSteps {
			return false
		}
		m.step = wake
		runnable = m.runnableIDs()
		if len(runnable) == 0 {
			return false
		}
	}
	tid := m.cfg.Sched.Next(runnable, m.step)
	t := m.Thread(tid)
	if t == nil || !t.Runnable(m.step) {
		// Defensive: a misbehaving scheduler choice falls back to the
		// first runnable thread to preserve determinism.
		t = m.Thread(runnable[0])
	}
	if t.Status == StatusSleeping {
		t.Status = StatusRunnable
	}
	m.traceAppend(t.ID)
	in := t.Cur()
	if in == nil {
		m.fault(t, nil, &Fault{Kind: FaultBadCall, Msg: "fell off end of block"})
		return true
	}
	if m.cfg.Breakpoint != nil {
		if m.cfg.Breakpoint(m, t, in) == BPSuspend {
			t.Suspended = true
			// The suspension consumed the scheduling slot but not the
			// instruction; undo the trace entry so replays stay aligned
			// with executed instructions.
			m.trace = m.trace[:len(m.trace)-1]
			return true
		}
	}
	if m.hasSwitch {
		if m.prevTID >= 0 && m.prevTID != t.ID {
			for _, so := range m.cfg.SwitchObservers {
				so.OnSwitch(m, m.prevTID, t.ID, m.prevInstr, in)
			}
		}
		m.prevTID, m.prevInstr = t.ID, in
	}
	if fr := t.Top(); fr.BC != nil {
		m.execWord(t, fr, in, fr.BC.Code[fr.FPC])
	} else {
		m.exec(t, in)
	}
	m.step++
	return true
}

// traceCap picks the schedule trace's initial capacity: enough that
// short runs never regrow, bounded so machines with a huge step budget
// don't pre-commit memory they won't use.
func traceCap(maxSteps int) int {
	const presize = 8192
	if maxSteps < presize {
		return maxSteps
	}
	return presize
}

// traceAppend grows the schedule trace by doubling. The runtime's
// append tapers its growth factor for large slices, which is the right
// call for long-lived data but re-copies the (per-step, run-long) trace
// so often that its cumulative allocation dominates a no-observer run;
// doubling caps the cumulative cost at ~2x the final size.
func (m *Machine) traceAppend(id ThreadID) {
	if len(m.trace) == cap(m.trace) {
		grown := make([]ThreadID, len(m.trace), 2*cap(m.trace)+64)
		copy(grown, m.trace)
		m.trace = grown
	}
	m.trace = append(m.trace, id)
}

// Run steps the machine until completion, deadlock, fault-halt, or the
// step bound, and returns the result.
func (m *Machine) Run() *Result {
	m.RunLoop()
	return m.Result()
}

// RunLoop steps the machine until it can make no more progress,
// without building a Result. Under the compiled engine it uses the
// batched dispatch loop (unless a breakpoint is attached, which needs
// Step's per-instruction hook); under the tree engine it is exactly
// `for m.Step() {}`. The two are interchangeable: callers may hand-step
// a machine and then let RunLoop finish it.
func (m *Machine) RunLoop() {
	if m.prog != nil && m.cfg.Breakpoint == nil {
		m.runBytecode()
		return
	}
	for m.Step() {
	}
}

// Result snapshots the run outcome so far. The Faults, Output, and
// Schedule slices are read-only views sharing the machine's append-only
// buffers: the machine never rewrites delivered entries and any append
// past a view's clipped capacity reallocates, so the views stay stable
// even if the machine keeps stepping — without re-copying buffers that
// can dwarf the rest of the per-run allocation. The one path that does
// rewrite trace history is the breakpoint suspension undo, so machines
// with a breakpoint get a defensive schedule copy instead.
func (m *Machine) Result() *Result {
	schedule := m.trace[:len(m.trace):len(m.trace)]
	if m.cfg.Breakpoint != nil {
		schedule = append([]ThreadID(nil), m.trace...)
	}
	r := &Result{
		ExitCode:    m.exitCode,
		Steps:       m.step,
		Faults:      m.faults[:len(m.faults):len(m.faults)],
		Output:      m.output[:len(m.output):len(m.output)],
		Schedule:    schedule,
		UID:         m.uid,
		Stall:       m.Stall(),
		MaxStepsHit: m.step >= m.cfg.MaxSteps,
	}
	return r
}

// Resume clears the suspension flag of a thread (breakpoint release).
func (m *Machine) Resume(tid ThreadID) {
	if t := m.Thread(tid); t != nil {
		t.Suspended = false
		m.schedDirty = true
	}
}

// Suspend suspends a thread (verifier control).
func (m *Machine) Suspend(tid ThreadID) {
	if t := m.Thread(tid); t != nil {
		t.Suspended = true
		m.schedDirty = true
	}
}

// PendingAccess describes the memory access a thread is about to perform.
type PendingAccess struct {
	IsWrite bool
	Addr    int64
	// Val is the value about to be written (writes) or currently in
	// memory (reads) — the "value they're about to read and write"
	// security hint from §5.2.
	Val   int64
	Instr *ir.Instr
}

// Pending returns the access the thread's next instruction would perform,
// if that instruction is a plain load or store.
func (m *Machine) Pending(tid ThreadID) (PendingAccess, bool) {
	t := m.Thread(tid)
	if t == nil {
		return PendingAccess{}, false
	}
	in := t.Cur()
	if in == nil {
		return PendingAccess{}, false
	}
	switch in.Op {
	case ir.OpLoad:
		addr, f := m.eval(t, in.Args[0])
		if f != nil {
			return PendingAccess{}, false
		}
		return PendingAccess{Addr: addr, Val: m.mem.Peek(addr), Instr: in}, true
	case ir.OpStore:
		val, f1 := m.eval(t, in.Args[0])
		addr, f2 := m.eval(t, in.Args[1])
		if f1 != nil || f2 != nil {
			return PendingAccess{}, false
		}
		return PendingAccess{IsWrite: true, Addr: addr, Val: val, Instr: in}, true
	default:
		return PendingAccess{}, false
	}
}

func (m *Machine) exec(t *Thread, in *ir.Instr) {
	fr := t.Top()
	advance := func() { fr.PC++ }

	switch in.Op {
	case ir.OpConst:
		fr.Regs[in.Dst] = in.Args[0].Imm
		advance()

	case ir.OpLoad:
		addr, f := m.eval(t, in.Args[0])
		if f == nil {
			var v int64
			v, f = m.mem.Load(addr)
			if f == nil {
				fr.Regs[in.Dst] = v
				if m.hasObs {
					m.emit(Event{Kind: EvRead, TID: t.ID, Addr: addr, Val: v, Instr: in})
				}
				advance()
				return
			}
			f.Addr = addr
		}
		m.fault(t, in, f)

	case ir.OpStore:
		val, f := m.eval(t, in.Args[0])
		if f == nil {
			var addr int64
			addr, f = m.eval(t, in.Args[1])
			if f == nil {
				if f = m.mem.Store(addr, val); f == nil {
					if m.hasObs {
						m.emit(Event{Kind: EvWrite, TID: t.ID, Addr: addr, Val: val, Instr: in})
					}
					advance()
					return
				}
				f.Addr = addr
			}
		}
		m.fault(t, in, f)

	case ir.OpBin:
		a, f := m.eval(t, in.Args[0])
		if f != nil {
			m.fault(t, in, f)
			return
		}
		b, f := m.eval(t, in.Args[1])
		if f != nil {
			m.fault(t, in, f)
			return
		}
		v, f := binOp(in.Bin, a, b)
		if f != nil {
			m.fault(t, in, f)
			return
		}
		fr.Regs[in.Dst] = v
		advance()

	case ir.OpCmp:
		a, _ := m.eval(t, in.Args[0])
		b, _ := m.eval(t, in.Args[1])
		if cmpOp(in.Pred, a, b) {
			fr.Regs[in.Dst] = 1
		} else {
			fr.Regs[in.Dst] = 0
		}
		advance()

	case ir.OpBr:
		c, _ := m.eval(t, in.Args[0])
		taken := c != 0
		if m.hasObs {
			m.emit(Event{Kind: EvBranch, TID: t.ID, Val: boolToInt(taken), Instr: in})
		}
		target := in.Args[2].Name
		if taken {
			target = in.Args[1].Name
		}
		m.enterBlock(t, fr.Fn.Block(target), fr.Block.Name)

	case ir.OpJmp:
		m.enterBlock(t, fr.Fn.Block(in.Args[0].Name), fr.Block.Name)

	case ir.OpPhi:
		// Phis are consumed by enterBlock; reaching one here means control
		// entered mid-block, which the verifier prevents.
		m.fault(t, in, &Fault{Kind: FaultBadCall, Msg: "phi executed outside block entry"})

	case ir.OpRet:
		var v int64
		if len(in.Args) == 1 {
			v, _ = m.eval(t, in.Args[0])
		}
		m.ret(t, v)

	case ir.OpAlloca:
		n, _ := m.eval(t, in.Args[0])
		b := m.mem.Alloc(n, BlockStack, fmt.Sprintf("alloca@%s:%d", fr.Fn.Name, in.Pos.Line), t.Stack())
		fr.Allocas = append(fr.Allocas, b)
		fr.Regs[in.Dst] = b.Base
		if m.hasObs {
			m.emit(Event{Kind: EvAlloc, TID: t.ID, Addr: b.Base, Aux: n, Instr: in})
		}
		advance()

	case ir.OpGep:
		base, f := m.eval(t, in.Args[0])
		if f != nil {
			m.fault(t, in, f)
			return
		}
		off, _ := m.eval(t, in.Args[1])
		fr.Regs[in.Dst] = base + off
		advance()

	case ir.OpAddrOf:
		fr.Regs[in.Dst] = m.globals[in.Args[0].Name]
		advance()

	case ir.OpFunc:
		v, f := m.eval(t, in.Args[0])
		if f != nil {
			m.fault(t, in, f)
			return
		}
		fr.Regs[in.Dst] = v
		advance()

	case ir.OpCall:
		m.execCall(t, in)

	default:
		m.fault(t, in, &Fault{Kind: FaultBadCall, Msg: fmt.Sprintf("unknown op %s", in.Op)})
	}
}

// ret pops the thread's top frame, delivering v to the caller.
func (m *Machine) ret(t *Thread, v int64) {
	fr := t.Top()
	if len(fr.Allocas) > 0 {
		st := t.Stack()
		for _, b := range fr.Allocas {
			m.mem.Release(b, st)
		}
	}
	t.Frames = t.Frames[:len(t.Frames)-1]
	if len(t.Frames) == 0 {
		t.top = nil
		t.Status = StatusDone
		t.Result = v
		m.schedDirty = true
		m.wakeJoiners(t)
		return
	}
	caller := t.Frames[len(t.Frames)-1]
	t.top = caller
	if ci := fr.CallInstr; ci != nil && ci.Dst != "" {
		if caller.Slots != nil {
			caller.Slots[caller.BC.SlotOf[ci.Dst]] = v
		} else {
			caller.Regs[ci.Dst] = v
		}
	}
	if caller.BC != nil {
		caller.FPC++
	} else {
		caller.PC++
	}
}

func (m *Machine) wakeJoiners(done *Thread) {
	for _, t := range m.threads {
		if t.Status == StatusBlockedJoin && t.JoinTarget == done.ID {
			t.Status = StatusRunnable
			m.schedDirty = true
		}
	}
}

func (m *Machine) execCall(t *Thread, in *ir.Instr) {
	callee := in.Callee()
	switch callee.Kind {
	case ir.OperandFunc:
		if fn := m.mod.Func(callee.Name); fn != nil {
			m.callFunc(t, in, fn)
			return
		}
		m.callIntrinsic(t, in, callee.Name)
	case ir.OperandReg:
		v := t.Top().Regs[callee.Name]
		if v == 0 {
			m.fault(t, in, &Fault{Kind: FaultNullFuncPtr, Addr: 0,
				Msg: fmt.Sprintf("indirect call through %%%s == NULL", callee.Name)})
			return
		}
		if name, ok := m.intrinsicByRef[v]; ok {
			m.callIntrinsic(t, in, name)
			return
		}
		fn := m.FuncForRef(v)
		if fn == nil {
			m.fault(t, in, &Fault{Kind: FaultBadCall, Addr: v,
				Msg: fmt.Sprintf("indirect call through %%%s = %d is not a function", callee.Name, v)})
			return
		}
		m.callFunc(t, in, fn)
	default:
		m.fault(t, in, &Fault{Kind: FaultBadCall, Msg: "bad callee operand"})
	}
}

func (m *Machine) callFunc(t *Thread, in *ir.Instr, fn *ir.Func) {
	args := m.argBuf[:0]
	for _, a := range in.CallArgs() {
		v, f := m.eval(t, a)
		if f != nil {
			m.fault(t, in, f)
			return
		}
		args = append(args, v)
	}
	if m.hasObs {
		m.emit(Event{Kind: EvCall, TID: t.ID, Instr: in})
	}
	caller := t.Top()
	fr := &Frame{
		Fn: fn, Regs: make(map[string]int64, 8), CallInstr: in,
		chain: callstack.PushNode(caller.chain, callstack.Entry{Fn: caller.Fn.Name, Pos: in.Pos}),
	}
	for i, p := range fn.Params {
		if i < len(args) {
			fr.Regs[p] = args[i]
		}
	}
	m.argBuf = args[:0]
	t.Frames = append(t.Frames, fr)
	t.top = fr
	m.enterBlock(t, fn.Entry(), "")
}

func binOp(k ir.BinKind, a, b int64) (int64, *Fault) {
	switch k {
	case ir.BinAdd:
		return a + b, nil
	case ir.BinSub:
		return a - b, nil
	case ir.BinMul:
		return a * b, nil
	case ir.BinDiv:
		if b == 0 {
			return 0, &Fault{Kind: FaultDivZero}
		}
		return a / b, nil
	case ir.BinRem:
		if b == 0 {
			return 0, &Fault{Kind: FaultDivZero}
		}
		return a % b, nil
	case ir.BinAnd:
		return a & b, nil
	case ir.BinOr:
		return a | b, nil
	case ir.BinXor:
		return a ^ b, nil
	case ir.BinShl:
		return a << (uint64(b) & 63), nil
	case ir.BinShr:
		return int64(uint64(a) >> (uint64(b) & 63)), nil
	default:
		return 0, &Fault{Kind: FaultBadCall, Msg: fmt.Sprintf("bad binop %d", int(k))}
	}
}

func cmpOp(p ir.CmpPred, a, b int64) bool {
	switch p {
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
	case ir.CmpULT:
		return uint64(a) < uint64(b)
	case ir.CmpULE:
		return uint64(a) <= uint64(b)
	case ir.CmpUGT:
		return uint64(a) > uint64(b)
	case ir.CmpUGE:
		return uint64(a) >= uint64(b)
	default:
		return false
	}
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
