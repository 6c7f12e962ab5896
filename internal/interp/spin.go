package interp

import (
	"slices"
	"sync"

	"github.com/conanalysis/owl/internal/bytecode"
	"github.com/conanalysis/owl/internal/ir"
)

// This file is the spin fast-forward: when the scheduler is bound to
// keep one thread running and that thread is proven to be in a cycle
// with no side effect, the machine jumps over whole turns of the cycle
// instead of executing them, with exactly the outcome stepping through
// them would have produced.

// HoldingScheduler is an optional Scheduler extension that lets a
// compiled machine fast-forward a thread the scheduler is bound to keep
// picking. Hold reports the thread every Next call from step to until-1
// would pick, provided the runnable set stays exactly runnable and step
// increments by one per call; ok is false when the next pick is not
// fixed. Skip then applies the state change of k such picks without
// making them: Hold + Skip(k) must be observably identical to k Next
// calls for every k ≤ until-step.
type HoldingScheduler interface {
	Scheduler
	Hold(runnable []ThreadID, step int) (tid ThreadID, until int, ok bool)
	Skip(runnable []ThreadID, step, k int)
}

// SpinObserver is an optional Observer extension that lets the machine
// fast-forward a spin while the observer is attached; a machine with an
// observer that does not implement it never fast-forwards. MarkSpin
// starts a period. SpinQuiet reports whether the events delivered since
// MarkSpin changed nothing but state a repetition of the same events
// overwrites with the same effect. When it did, SkipSpin(k) accounts for
// k more repetitions of the period's events without their delivery:
// SkipSpin(k) followed by one more delivery of the period's events must
// leave the observer exactly as k+1 deliveries would. The machine
// delivers that last repetition live, so step-stamped state ends up as
// stepping would leave it.
type SpinObserver interface {
	Observer
	MarkSpin()
	SpinQuiet() bool
	SkipSpin(k int)
}

// CycleLog records sampled thread states and finds exact repeats. A
// state is a thread's compiled frames: each frame's function, pc, slots
// and live allocas, which is the thread's whole local state (prevEdge
// only names the previous block for snapshots and steers nothing).
// While nothing outside a thread changes, its future is a function of
// that state alone, so a repeat proves the thread is in a cycle.
//
// The index maps a sample's key to its newest sample; samples with the
// same key chain through prev. A key match is only a candidate: the
// repeat is confirmed by comparing the stored words and functions.
type CycleLog struct {
	index   map[cycleKey]int32
	samples []cycleSample
	words   []int64
	fns     []*ir.Func
}

// cycleKey indexes samples: the thread and a hash of its frames.
type cycleKey struct {
	tid  ThreadID
	hash uint64
}

// cycleSample is one recorded state, words[w0:w1] and fns[f0:f1],
// tagged with the caller's step.
type cycleSample struct {
	w0, w1, f0, f1 int
	step           int
	prev           int32
}

// Reset forgets every sample, keeping the buffers.
func (c *CycleLog) Reset() {
	if len(c.samples) > 0 {
		clear(c.index)
		c.samples, c.words, c.fns = c.samples[:0], c.words[:0], c.fns[:0]
	}
}

// Len returns the number of samples recorded since the last Reset.
func (c *CycleLog) Len() int { return len(c.samples) }

// Repeat reports whether t's state equals a state recorded since the
// last Reset, and returns that sample's step. A state seen for the
// first time is recorded under step instead; an equal state is never
// recorded twice. A thread with a frame of the tree-walking engine has
// no comparable state: Repeat records nothing and reports false.
func (c *CycleLog) Repeat(t *Thread, step int) (prev int, ok bool) {
	for _, fr := range t.Frames {
		if fr.BC == nil {
			return 0, false
		}
	}
	w0, f0 := len(c.words), len(c.fns)
	for _, fr := range t.Frames {
		c.fns = append(c.fns, fr.Fn)
		c.words = append(c.words, int64(fr.FPC), int64(len(fr.Slots)))
		c.words = append(c.words, fr.Slots...)
		c.words = append(c.words, int64(len(fr.Allocas)))
		for _, b := range fr.Allocas {
			c.words = append(c.words, b.Base)
		}
	}
	w1, f1 := len(c.words), len(c.fns)
	hash := uint64(14695981039346656037)
	for _, w := range c.words[w0:] {
		hash = (hash ^ uint64(w)) * 1099511628211
	}
	key := cycleKey{tid: t.ID, hash: hash}
	if c.index == nil {
		c.index = make(map[cycleKey]int32)
	}
	head, found := c.index[key]
	for i := head; found && i >= 0; i = c.samples[i].prev {
		s := c.samples[i]
		if slices.Equal(c.words[s.w0:s.w1], c.words[w0:w1]) && slices.Equal(c.fns[s.f0:s.f1], c.fns[f0:f1]) {
			c.words, c.fns = c.words[:w0], c.fns[:f0]
			return s.step, true
		}
	}
	if !found {
		head = -1
	}
	c.index[key] = int32(len(c.samples))
	c.samples = append(c.samples, cycleSample{w0: w0, w1: w1, f0: f0, f1: f1, step: step, prev: head})
	return 0, false
}

// cycleLogs recycles the machines' cycle logs, and with them the
// buffers their windows grew: a log is only held inside one held
// window.
var cycleLogs = sync.Pool{New: func() any { return new(CycleLog) }}

const (
	// spinMinHold is the shortest hold worth watching: a jump needs a
	// sampled turn, a repeat, a confirming turn and two more to skip.
	spinMinHold = 64
	// spinMaxSamples bounds one search: a thread whose state does not
	// repeat within this many backward branches (a loop that counts,
	// say) is searched afresh, so the log stays small.
	spinMaxSamples = 32
	// spinMaxTries bounds the confirming turns an observer may find
	// loud (a first read that moves an epoch is loud once; a racy read
	// that counts a report stays loud) before the window stops trying.
	spinMaxTries = 3
)

// spinCanSkip reports whether every observer lets the machine
// fast-forward (see SpinObserver). Switch observers need not opt in:
// a held window runs one thread, so they see only its first step,
// which runs live.
func (m *Machine) spinCanSkip() bool {
	for _, o := range m.cfg.Observers {
		if _, ok := o.(SpinObserver); !ok {
			return false
		}
	}
	return true
}

// SkippedSteps returns how many steps the machine fast-forwarded over
// rather than executed since it was built or restored.
func (m *Machine) SkippedSteps() int { return m.skipped }

// spinEffect reports whether executing word w of thread t's top frame
// fr can change state outside t's frames, or make t's future depend on
// more than its frames: stores, allocas, a ret that ends the thread or
// frees allocas, lock calls, indirect calls and every intrinsic but the
// pure thread_id and getuid. Direct calls to user functions are not
// effects in themselves: the callee's words are classified one by one.
// Status transitions end a held window anyway.
func spinEffect(t *Thread, fr *Frame, w uint64) bool {
	switch byte(w) {
	case bytecode.OpStore, bytecode.OpStoreG, bytecode.OpAlloca:
		return true
	case bytecode.OpRet:
		return len(t.Frames) == 1 || len(fr.Allocas) > 0
	case bytecode.OpCall:
		cs := &fr.BC.Calls[w>>bytecode.DstShift&bytecode.DstMask]
		switch cs.Kind {
		case bytecode.CallFunc:
			return false
		case bytecode.CallIntrinsic:
			return cs.Name != "thread_id" && cs.Name != "getuid"
		}
		return true
	}
	return false
}

// spinWatch is one held window's search for a spin: samples taken at
// backward branches since the last side effect, then a confirming turn
// of the period the first repeat found.
type spinWatch struct {
	log *CycleLog
	// period is the cycle length in steps once a repeat is found (0
	// while searching); from is the step of the sample it repeats and
	// confirmAt the step the current confirming turn ends at.
	period, from, confirmAt int
	tries                   int
	// done stops the search for the rest of the window.
	done bool
}

// void restarts the search after a side effect.
func (sw *spinWatch) void() {
	sw.period = 0
	if sw.log != nil {
		sw.log.Reset()
	}
}

// runHeld runs the thread a HoldingScheduler is bound to pick, live,
// until the hold ends, the next wake-up, the step bound, or the first
// status transition — the runnable set the hold assumes is then
// stale, exactly as runPlanned's window is — and jumps over the whole
// turns of a proven spin inside that window. It returns the picks it
// consumed, which it commits with Skip; 0 means it declined, and the
// caller steps another way.
//
// The jump's exactness: samples are taken when the thread arrives
// somewhere through a backward branch (every cycle takes one), and any
// side effect (spinEffect) voids them. A sample equal to an earlier one
// proves a cycle of period P = the steps between them: memory, locks
// and the thread set are frozen, and the thread's frames repeat. The
// machine then runs one more turn live with the observers marked; if
// the turn ends in the same state and every observer found it quiet,
// every further turn delivers the same events to an observer in the
// same state. It advances by whole turns, stopping one turn short of
// the window's end, and runs the rest live, so the events of the last
// turn — and with them every step-stamped access the observers keep —
// come out as stepping would produce them.
func (m *Machine) runHeld(hs HoldingScheduler) int {
	maxSteps := m.cfg.MaxSteps
	if m.exited || m.step >= maxSteps || m.schedDirty || len(m.runnableCached()) == 0 {
		return 0
	}
	runnable := m.runnableBuf
	start := m.step
	tid, until, ok := hs.Hold(runnable, start)
	end := min(until, maxSteps, m.wakeAt)
	if !ok || end-start < spinMinHold {
		return 0
	}
	t := m.Thread(tid)
	if t == nil || !t.Runnable(start) {
		return 0
	}
	if t.Status == StatusSleeping {
		t.Status = StatusRunnable // a due sleeper, woken by its pick as in Step
	}
	t.imaged = false
	needInstr := m.hasObs || m.hasSwitch
	var sw spinWatch
	picks := 0
	for m.step < end && !m.exited && !m.schedDirty {
		picks++
		m.traceAppend(t.ID)
		fr := t.top
		pc := fr.FPC
		w := fr.code[pc]
		var in *ir.Instr
		if byte(w) == bytecode.OpNop {
			if in = fr.BC.Instrs[pc]; in == nil {
				m.fault(t, nil, &Fault{Kind: FaultBadCall, Msg: "fell off end of block"})
				break
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
		effect := !sw.done && spinEffect(t, fr, w)
		m.execWord(t, fr, in, w)
		m.step++
		switch {
		case sw.done:
		case effect:
			sw.void()
		case (byte(w) == bytecode.OpBr || byte(w) == bytecode.OpJmp) && fr.FPC <= pc:
			picks += m.spinSample(&sw, t, end)
		}
	}
	if sw.log != nil {
		cycleLogs.Put(sw.log)
	}
	hs.Skip(runnable, start, picks)
	return picks
}

// spinSample takes the sample at a backward branch of t's held window
// (whose steps end at end) and, at the end of a quiet confirming turn,
// jumps; it returns the steps jumped over.
func (m *Machine) spinSample(sw *spinWatch, t *Thread, end int) int {
	if sw.log == nil {
		sw.log = cycleLogs.Get().(*CycleLog)
		sw.log.Reset()
	}
	if sw.period > 0 && m.step < sw.confirmAt {
		return 0 // inside the confirming turn
	}
	prev, ok := sw.log.Repeat(t, m.step)
	if sw.period == 0 {
		if ok {
			// A cycle: confirm it over one more turn.
			sw.period, sw.from, sw.confirmAt = m.step-prev, prev, m.step+m.step-prev
			m.markSpin()
		} else if sw.log.Len() >= spinMaxSamples {
			sw.log.Reset()
		}
		return 0
	}
	if !ok || prev != sw.from || m.step != sw.confirmAt {
		sw.void() // not the proven cycle after all
		return 0
	}
	if !m.spinQuiet() {
		if sw.tries++; sw.tries >= spinMaxTries {
			sw.done = true
		} else {
			sw.confirmAt += sw.period
			m.markSpin()
		}
		return 0
	}
	sw.done = true
	turns := (end-m.step)/sw.period - 1
	if turns <= 0 {
		return 0
	}
	jump := turns * sw.period
	for _, o := range m.cfg.Observers {
		o.(SpinObserver).SkipSpin(turns)
	}
	m.traceRepeat(t.ID, jump)
	m.step += jump
	m.skipped += jump
	return jump
}

// markSpin starts a period in every observer.
func (m *Machine) markSpin() {
	for _, o := range m.cfg.Observers {
		o.(SpinObserver).MarkSpin()
	}
}

// spinQuiet reports whether every observer found the period quiet.
func (m *Machine) spinQuiet() bool {
	for _, o := range m.cfg.Observers {
		if !o.(SpinObserver).SpinQuiet() {
			return false
		}
	}
	return true
}

// traceRepeat records n picks of id in the schedule trace, unless the
// run records no schedule.
func (m *Machine) traceRepeat(id ThreadID, n int) {
	if m.cfg.NoSchedule {
		return
	}
	m.trace = slices.Grow(m.trace, n)
	for range n {
		m.trace = append(m.trace, id)
	}
}
