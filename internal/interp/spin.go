package interp

import (
	"slices"
	"sync"

	"github.com/conanalysis/owl/internal/bytecode"
	"github.com/conanalysis/owl/internal/ir"
)

// This file is the held window and its spin fast-forward: while the
// scheduler's picks are a function of the runnable set, the machine
// runs every thread the scheduler picks without asking it step by step,
// and when the whole machine is proven to be in a cycle with no side
// effect it jumps over whole turns of the cycle instead of executing
// them, with exactly the outcome stepping through them would have
// produced.

// HoldingScheduler is an optional Scheduler extension that lets a
// compiled machine run a window of picks without calling Next. Hold
// reports that, from step to until-1, the scheduler's pick from the
// runnable set exactly runnable is tid, and that Next would change no
// state there beyond what Skip commits; ok is false when the pick is
// not fixed. Skip then applies the state change of k such picks without
// making them: Hold + Skip(k) must be observably identical to k Next
// calls for every k ≤ until-step. The machine asks again whenever the
// runnable set changes, committing the picks made from the old set
// first, so a window spans every thread the scheduler picks.
//
// A scheduler qualifies where its pick depends on the runnable set and
// the last committed pick alone: PCT between demotions once every
// runnable thread has drawn its priority, a decision scheduler past its
// vector and its recording bound. The whole-machine fast-forward relies
// on this: its state sample holds the runnable set (as thread statuses
// and wake-up offsets) and the last pick, so equal samples see equal
// picks.
type HoldingScheduler interface {
	Scheduler
	Hold(runnable []ThreadID, step int) (tid ThreadID, until int, ok bool)
	Skip(runnable []ThreadID, step, k int)
}

// SpinObserver is an optional extension of an Observer or a
// SwitchObserver that lets the machine fast-forward a spin while it is
// attached; a machine with an observer of either kind that does not
// implement it never fast-forwards. MarkSpin starts a period. SpinQuiet
// reports whether the events (or switches) delivered since MarkSpin
// changed nothing but state a repetition of the same deliveries
// overwrites with the same effect. When they did, SkipSpin(k) accounts
// for k more repetitions of the period's deliveries without making
// them: SkipSpin(k) followed by one more delivery of the period's
// events must leave the observer exactly as k+1 deliveries would. The
// machine delivers that last repetition live, so step-stamped state
// ends up as stepping would leave it.
type SpinObserver interface {
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
// Samples are indexed by an open-addressed table of sample numbers
// keyed by the hash each sample computes over its words anyway; Reset
// cuts the table back to its initial length, so a log that searched
// long once does not clear a large table at every reset. A hash match
// is only a candidate: the repeat is confirmed by comparing the stored
// words.
type CycleLog struct {
	table   []int32 // sample number + 1; 0 marks a free slot
	samples []cycleSample
	words   []int64
}

// cycleSample is one recorded state, words[w0:w1] of thread tid, tagged
// with the caller's step.
type cycleSample struct {
	hash   uint64
	w0, w1 int32
	tid    ThreadID
	step   int
}

// cycleTableMin is a log's initial table length, a power of two.
const cycleTableMin = 16

// Reset forgets every sample, keeping the buffers.
func (c *CycleLog) Reset() {
	if len(c.samples) > 0 {
		c.table = c.table[:cycleTableMin]
		clear(c.table)
		c.samples, c.words = c.samples[:0], c.words[:0]
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
	i, seen := c.intern(t, step)
	if !seen {
		return 0, false
	}
	return c.samples[i].step, true
}

// intern returns the number of the recorded sample equal to t's state
// and true, or records the state under step and returns its new number
// and false; -1 when t has a frame of the tree-walking engine.
func (c *CycleLog) intern(t *Thread, step int) (int, bool) {
	for _, fr := range t.Frames {
		if fr.BC == nil {
			return -1, false
		}
	}
	w0 := len(c.words)
	for _, fr := range t.Frames {
		c.words = append(c.words, int64(fr.BC.Idx), int64(fr.FPC), int64(len(fr.Slots)))
		c.words = append(c.words, fr.Slots...)
		c.words = append(c.words, int64(len(fr.Allocas)))
		for _, b := range fr.Allocas {
			c.words = append(c.words, b.Base)
		}
	}
	cur := c.words[w0:]
	h := hashWords(uint64(t.ID), cur)
	if c.table == nil {
		c.table = make([]int32, cycleTableMin)
	}
	mask := len(c.table) - 1
	i := slotOf(h, mask)
	for ; c.table[i] != 0; i = (i + 1) & mask {
		n := int(c.table[i] - 1)
		s := &c.samples[n]
		if s.hash == h && s.tid == t.ID && slices.Equal(c.words[s.w0:s.w1], cur) {
			c.words = c.words[:w0]
			return n, true
		}
	}
	c.samples = append(c.samples, cycleSample{hash: h, w0: int32(w0), w1: int32(len(c.words)), tid: t.ID, step: step})
	c.table[i] = int32(len(c.samples))
	if 2*len(c.samples) > len(c.table) {
		c.table = growTable(c.table, len(c.samples), func(n int) uint64 { return c.samples[n].hash })
	}
	return len(c.samples) - 1, false
}

// hashWords is FNV-1a over seed and words.
func hashWords(seed uint64, words []int64) uint64 {
	h := (14695981039346656037 ^ seed) * 1099511628211
	for _, w := range words {
		h = (h ^ uint64(w)) * 1099511628211
	}
	return h
}

// slotOf is the table slot a hash probes first. FNV's low bits depend
// only on its inputs' low bits, so the high half is folded in.
func slotOf(h uint64, mask int) int { return int(h^h>>32) & mask }

// growTable doubles an open-addressed table of sample numbers, which
// is more than half full, reinserting the n samples by hash(i). It
// reuses the table's capacity when it can.
func growTable(table []int32, n int, hash func(int) uint64) []int32 {
	size := 2 * len(table)
	if cap(table) >= size {
		table = table[:size]
		clear(table)
	} else {
		table = make([]int32, size)
	}
	mask := size - 1
	for s := range n {
		i := slotOf(hash(s), mask)
		for table[i] != 0 {
			i = (i + 1) & mask
		}
		table[i] = int32(s + 1)
	}
	return table
}

const (
	// spinMinHold is the shortest window worth running: a jump needs a
	// sampled turn, a repeat, a confirming turn and two more to skip.
	spinMinHold = 64
	// spinMaxSamples bounds one search: a machine whose state does not
	// repeat within this many backward branches (a loop that counts,
	// say) is searched afresh, so the log stays small.
	spinMaxSamples = 64
	// spinMaxTries bounds the confirming turns an observer may find
	// loud (a first read that moves an epoch is loud once; a racy read
	// that counts a report stays loud) before the window stops trying.
	spinMaxTries = 3
)

// spinCanSkip reports whether every observer and every switch observer
// lets the machine fast-forward (see SpinObserver).
func (m *Machine) spinCanSkip() bool {
	for _, o := range m.cfg.Observers {
		if _, ok := o.(SpinObserver); !ok {
			return false
		}
	}
	for _, o := range m.cfg.SwitchObservers {
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
// fr can change state outside the machine's sampled state (every
// thread's frames, statuses and wake-ups), or make the machine's future
// depend on more than that: stores, allocas, a ret that ends the thread
// or frees allocas, lock calls, indirect calls and every intrinsic but
// the pure thread_id and getuid and the sleeps io_delay and sleep,
// whose only effect is a wake-up the sample holds. Direct calls to user
// functions are not effects in themselves: the callee's words are
// classified one by one.
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
			switch cs.Name {
			case "thread_id", "getuid", "io_delay", "sleep":
				return false
			}
		}
		return true
	}
	return false
}

// window is one held window: the scheduler holding it, the hold in
// force, and the spin search.
type window struct {
	hs HoldingScheduler
	// runnable is the set the current hold was asked for and until its
	// bound; picked counts the picks made from it and not yet committed,
	// from the step from.
	runnable     []ThreadID
	until        int
	picked, from int
	// advanced counts the picks the window committed and the steps it
	// jumped over.
	advanced int

	// log holds the search's samples; nil until the first.
	log *spinLog
	// period is the cycle length in steps once a repeat is found (0
	// while searching); confirmAt is the step the confirming turn ends
	// at, and turnUntil the least hold bound seen during it.
	period, confirmAt, turnUntil int
	tries                        int
	// done stops the search for the rest of the window, or for all of
	// it when an observer cannot skip.
	done bool
}

// spinLog is a window's record of whole-machine samples. A sample is
// taken at a backward branch of the running thread and holds the last
// pick and the branch's pc (the switch observers' previous thread and
// instruction, and all a holding scheduler may read besides the
// runnable set), then each thread's status and state, the latter
// interned in threads (a thread that has not run since its last sample
// keeps its state), and apart from the words, which the hash covers,
// each sleeper's wake-up.
type spinLog struct {
	threads CycleLog
	// ids holds, by ThreadID, the thread's state in threads, or -1 once
	// the thread has run since.
	ids []int32

	table   []int32 // sample number + 1; 0 marks a free slot
	samples []spinSample
	words   []int64
	wakes   []int

	// anchor is the sample the confirming turn started at: its words,
	// wake-ups and step.
	anchorWords []int64
	anchorWakes []int
	anchorStep  int

	// pieces are the confirming turn's picks by runnable set: k picks
	// from pieceIDs[i0:i1], in order.
	pieces   []piece
	pieceIDs []ThreadID
}

// spinSample is one recorded machine state, words[w0:w1] and
// wakes[k0:k0+threads], taken at step.
type spinSample struct {
	hash   uint64
	w0, w1 int32
	k0     int32
	step   int
}

// piece is a run of k picks from one runnable set.
type piece struct {
	i0, i1 int32
	k      int
}

// spinLogs recycles the windows' logs, and with them the buffers their
// searches grew: a log is only held inside one window.
var spinLogs = sync.Pool{New: func() any { return new(spinLog) }}

// reset forgets every sample. A log with no sample and no words has
// nothing to forget: a thread's state is only cached while a sample is
// taken, and a turn only confirmed after one is recorded.
func (l *spinLog) reset() {
	if len(l.samples) == 0 && len(l.words) == 0 {
		return
	}
	l.threads.Reset()
	for i := range l.ids {
		l.ids[i] = -1
	}
	l.table = l.table[:cycleTableMin]
	clear(l.table)
	l.samples, l.words, l.wakes = l.samples[:0], l.words[:0], l.wakes[:0]
	l.pieces, l.pieceIDs = l.pieces[:0], l.pieceIDs[:0]
}

// ran marks thread id as changed since its last sample.
func (l *spinLog) ran(id ThreadID) {
	if int(id) < len(l.ids) {
		l.ids[id] = -1
	}
}

// runHeld runs a window of the picks a HoldingScheduler holds, live:
// each segment runs the held thread until the hold ends, the next
// wake-up, the step bound or the first status transition, commits its
// picks with Skip and asks for the next hold over the new runnable set,
// until the scheduler declines, the set empties or the machine ends. It
// jumps over the whole turns of a proven whole-machine cycle inside
// that window when skip is set (see spinCanSkip). It returns the picks
// it committed plus the steps it jumped over; 0 means it declined, and
// the caller steps another way.
//
// The jump's exactness: samples are taken when the running thread takes
// a backward branch (every cycle takes one), and any side effect
// (spinEffect, or a thread leaving the runnable and sleeping states)
// voids them. A sample equal to an earlier one makes the steps between
// them a candidate period P. The machine then runs one more turn live
// with the observers marked and compares the state at its end with the
// state at its start: every thread's frames and status and the last
// pick equal, and each sleeper either due in as many steps as before or
// asleep until the same step, past both (a sleeper that did not run in
// the turn). Memory, locks, the thread set and every intrinsic's state
// are frozen, the holds pick by runnable set, and the runnable set
// follows from the statuses and wake-ups, so the next turn repeats the
// confirming one, shifted by P, for as long as no such outside sleeper
// wakes and every hold lasts. If every observer also found the turn
// quiet, each further turn delivers the same events to observers in the
// same state. The machine advances by whole turns, stopping one turn
// short of the first outside wake-up, the end of the holds and the step
// bound, shifts the wake-ups of the threads that slept in the turn with
// it, and runs the rest live, so the events of the last turn — and with
// them every step-stamped access the observers keep — come out as
// stepping would produce them.
func (m *Machine) runHeld(hs HoldingScheduler, skip bool) int {
	maxSteps := m.cfg.MaxSteps
	if m.exited || m.step >= maxSteps || m.schedDirty || len(m.runnableCached()) == 0 {
		return 0
	}
	start := m.step
	tid, until, ok := hs.Hold(m.runnableBuf, start)
	if !ok || min(until, maxSteps)-start < spinMinHold {
		return 0
	}
	needInstr := m.hasObs || m.hasSwitch
	win := window{hs: hs, runnable: m.runnableBuf, until: until, done: !skip}
	for {
		t := m.Thread(tid)
		if t == nil || !t.Runnable(m.step) {
			break // Step's defensive fallback decides this pick
		}
		if t.Status == StatusSleeping {
			t.Status = StatusRunnable // a due sleeper, woken by its pick as in Step
		}
		t.imaged = false
		if win.log != nil {
			win.log.ran(t.ID)
		}
		win.from = m.step
		end := min(win.until, maxSteps, m.wakeAt)
		for m.step < end && !m.exited && !m.schedDirty {
			win.picked++
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
			effect := !win.done && spinEffect(t, fr, w)
			m.execWord(t, fr, in, w)
			m.step++
			switch {
			case win.done:
			case effect:
				win.void()
			case (byte(w) == bytecode.OpBr || byte(w) == bytecode.OpJmp) && fr.FPC <= pc:
				if m.spinSample(&win, t, pc) {
					end = min(win.until, maxSteps, m.wakeAt)
				}
			}
		}
		win.commit(m.step)
		if m.exited || m.step >= maxSteps {
			break
		}
		if !win.done && m.schedDirty && t.Status != StatusSleeping {
			win.void() // blocked, finished or faulted
		}
		runnable := m.runnableCached()
		if len(runnable) == 0 {
			break
		}
		if tid, until, ok = hs.Hold(runnable, m.step); !ok {
			break
		}
		win.runnable, win.until = runnable, until
		if win.period > 0 {
			win.turnUntil = min(win.turnUntil, until)
		}
	}
	if win.log != nil {
		spinLogs.Put(win.log)
	}
	return win.advanced
}

// commit commits the current segment's picks, recording them as a
// piece of the confirming turn when one is running; step is the next
// pick's.
func (w *window) commit(step int) {
	k := w.picked
	if k == 0 {
		return
	}
	w.hs.Skip(w.runnable, w.from, k)
	w.advanced += k
	if w.period > 0 {
		l := w.log
		i0 := int32(len(l.pieceIDs))
		l.pieceIDs = append(l.pieceIDs, w.runnable...)
		l.pieces = append(l.pieces, piece{i0: i0, i1: int32(len(l.pieceIDs)), k: k})
	}
	w.picked, w.from = 0, step
}

// void restarts the search after a side effect.
func (w *window) void() {
	w.period = 0
	if w.log != nil {
		w.log.reset()
	}
}

// spinSample takes the sample at a backward branch at pc of the running
// thread t and, at the end of a quiet confirming turn, jumps; it
// reports whether it jumped.
func (m *Machine) spinSample(w *window, t *Thread, pc int) bool {
	if w.log == nil {
		w.log = spinLogs.Get().(*spinLog)
		w.log.reset()
	}
	l := w.log
	if w.period > 0 && m.step < w.confirmAt {
		return false // inside the confirming turn
	}
	w0, k0 := len(l.words), len(l.wakes)
	// t keeps running, so its state is sampled afresh every time.
	l.ran(t.ID)
	ok := m.spinState(l, t, pc)
	l.ran(t.ID)
	if !ok {
		w.done = true // a frame of the tree-walking engine: no state
		return false
	}
	if w.period == 0 {
		prev, found := m.spinRecord(l, w0, k0)
		if !found {
			if len(l.samples) >= spinMaxSamples {
				l.reset()
			}
			return false
		}
		// A candidate cycle: confirm it over one more turn, from here.
		w.period, w.confirmAt = m.step-prev, 2*m.step-prev
		m.anchor(w, w0, k0)
		return false
	}
	// The confirming turn ends here: its state must repeat its start.
	words, wakes := l.words[w0:], l.wakes[k0:]
	if m.step != w.confirmAt || !sameState(l.anchorWords, l.anchorWakes, l.anchorStep, words, wakes, m.step) {
		w.void()
		return false
	}
	jumped := false
	if m.spinQuiet() {
		w.done = true
		w.commit(m.step)
		jumped = m.spinJump(w, wakes)
	} else if w.tries++; w.tries >= spinMaxTries {
		w.done = true
	} else {
		w.confirmAt += w.period
		m.anchor(w, w0, k0)
	}
	l.words, l.wakes = l.words[:w0], l.wakes[:k0]
	return jumped
}

// anchor starts a confirming turn at the current step, whose state was
// just sampled at l.words[w0:] and l.wakes[k0:], and drops the sample.
func (m *Machine) anchor(w *window, w0, k0 int) {
	l := w.log
	l.anchorWords = append(l.anchorWords[:0], l.words[w0:]...)
	l.anchorWakes = append(l.anchorWakes[:0], l.wakes[k0:]...)
	l.anchorStep = m.step
	l.words, l.wakes = l.words[:w0], l.wakes[:k0]
	w.commit(m.step)
	w.turnUntil = w.until
	l.pieces, l.pieceIDs = l.pieces[:0], l.pieceIDs[:0]
	m.markSpin()
}

// spinState appends the machine's state to l's words and wake-ups, the
// running thread t having just taken the backward branch at pc; false
// when a live thread has a frame of the tree-walking engine.
func (m *Machine) spinState(l *spinLog, t *Thread, pc int) bool {
	for len(l.ids) < len(m.threads) {
		l.ids = append(l.ids, -1)
	}
	l.words = append(l.words, int64(t.ID), int64(pc))
	for _, th := range m.threads {
		status := int64(th.Status) << 1
		if th.Suspended {
			status |= 1
		}
		id := int32(-1)
		switch th.Status {
		case StatusDone, StatusFaulted:
		default:
			if id = l.ids[th.ID]; id < 0 {
				n, _ := l.threads.intern(th, m.step)
				if n < 0 {
					return false
				}
				id = int32(n)
				l.ids[th.ID] = id
			}
		}
		l.words = append(l.words, status, int64(id))
		wake := 0
		if th.Status == StatusSleeping {
			wake = th.SleepUntil
		}
		l.wakes = append(l.wakes, wake)
	}
	return true
}

// spinRecord looks the sample at l.words[w0:] and l.wakes[k0:] up among
// the recorded ones. It returns the step of an equal one, or records
// the new sample.
func (m *Machine) spinRecord(l *spinLog, w0, k0 int) (prev int, found bool) {
	words, wakes := l.words[w0:], l.wakes[k0:]
	h := hashWords(0, words)
	if l.table == nil {
		l.table = make([]int32, cycleTableMin)
	}
	mask := len(l.table) - 1
	i := slotOf(h, mask)
	for ; l.table[i] != 0; i = (i + 1) & mask {
		s := &l.samples[l.table[i]-1]
		if s.hash == h && sameState(l.words[s.w0:s.w1], l.wakes[s.k0:int(s.k0)+len(wakes)], s.step, words, wakes, m.step) {
			return s.step, true
		}
	}
	l.samples = append(l.samples, spinSample{hash: h, w0: int32(w0), w1: int32(len(l.words)), k0: int32(k0), step: m.step})
	l.table[i] = int32(len(l.samples))
	if 2*len(l.samples) > len(l.table) {
		l.table = growTable(l.table, len(l.samples), func(n int) uint64 { return l.samples[n].hash })
	}
	return 0, false
}

// sameState reports whether the machine state sampled at step b (words
// and wake-ups) repeats the one sampled at the earlier step a: equal
// words, and each sleeper due in as many steps (none, once due) or
// asleep until the same step, still ahead at b.
func sameState(aw []int64, ak []int, a int, bw []int64, bk []int, b int) bool {
	if !slices.Equal(aw, bw) {
		return false
	}
	for i, x := range ak {
		y := bk[i]
		if x == y && (x == 0 || y > b) {
			continue
		}
		if max(x-a, 0) != max(y-b, 0) {
			return false
		}
	}
	return true
}

// spinJump advances the machine over whole turns of the confirmed
// cycle, which ended at the current step with the wake-ups wakes; it
// reports whether it moved.
func (m *Machine) spinJump(w *window, wakes []int) bool {
	l := w.log
	stop := min(w.turnUntil, m.cfg.MaxSteps)
	for i, x := range wakes {
		if x != 0 && x == l.anchorWakes[i] && x > m.step {
			stop = min(stop, x) // asleep through the turn: caps the jump
		}
	}
	turns := (stop-m.step)/w.period - 1
	if turns <= 0 {
		return false
	}
	jump := turns * w.period
	for _, p := range l.pieces {
		w.hs.Skip(l.pieceIDs[p.i0:p.i1], m.step, p.k*turns)
	}
	for _, o := range m.cfg.Observers {
		o.(SpinObserver).SkipSpin(turns)
	}
	for _, o := range m.cfg.SwitchObservers {
		o.(SpinObserver).SkipSpin(turns)
	}
	m.traceRepeat(w.period, turns)
	// The threads that slept in the turn wake as many steps after the
	// jump as they would have before it; the heap's layout is not state
	// (the runnable set is kept in ThreadID order), so it is rebuilt.
	shifted := func(id ThreadID) bool { return wakes[id] != 0 && wakes[id] != l.anchorWakes[id] }
	for i := range m.sleepers {
		if sl := &m.sleepers[i]; shifted(sl.tid) && sl.until == wakes[sl.tid] {
			sl.until += jump
		}
	}
	for i, th := range m.threads {
		if shifted(ThreadID(i)) {
			th.SleepUntil += jump
			th.imaged = false
		}
	}
	for i := len(m.sleepers)/2 - 1; i >= 0; i-- {
		siftDown(m.sleepers, i)
	}
	m.step += jump
	m.skipped += jump
	m.wakeAt = m.nextWake()
	w.from = m.step
	w.advanced += jump
	return true
}

// markSpin starts a period in every observer.
func (m *Machine) markSpin() {
	for _, o := range m.cfg.Observers {
		o.(SpinObserver).MarkSpin()
	}
	for _, o := range m.cfg.SwitchObservers {
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
	for _, o := range m.cfg.SwitchObservers {
		if !o.(SpinObserver).SpinQuiet() {
			return false
		}
	}
	return true
}

// traceRepeat repeats the last period picks of the schedule trace turns
// more times, unless the run records no schedule. The window appended
// every one of them, so they are in trace, not in tracePrefix.
func (m *Machine) traceRepeat(period, turns int) {
	if m.cfg.NoSchedule {
		return
	}
	n := len(m.trace)
	m.trace = slices.Grow(m.trace, period*turns)
	for range turns {
		m.trace = append(m.trace, m.trace[n-period:n]...)
	}
}
