// Package raceverify implements OWL's dynamic race verifier (§5.2). It
// re-runs the program with thread-specific breakpoints at the two racing
// instructions of a report; when two different threads are suspended at
// the pair and their pending accesses target the same address with at
// least one write, the race has been caught "in the racing moment". The
// verifier then emits security hints — the racing values, the variable's
// name, and whether a NULL-pointer dereference or uninitialized read could
// follow — that feed the static vulnerability analyzer.
//
// The paper builds this on LLDB; here the interpreter's deterministic
// thread suspension provides the same semantics. §5.2 names two kinds of
// livelock. When all remaining threads block on a suspended one, the
// verifier does what the paper describes: it temporarily releases one
// of the triggered breakpoints. When the others spin without the second
// thread arriving, the attempt ends as soon as a proof shows that no
// thread can ever reach the partner instruction (see holdProof), and at
// the latest when HoldBudget runs out.
//
// The paper re-runs the program from the start for every report and
// attempt. Here a stage's reports are verified together, seed by seed:
// each seed's schedule runs once, and every report's attempt resumes
// from a snapshot taken where its first racing instruction first fires.
// Seeds run in parallel and merge in seed order (see VerifyAll).
//
// The verifier's breakpoints, like LLDB's address breakpoints, cost
// nothing until they are hit: the machine calls the breakpoint only at
// instructions it watches (interp.Machine.Watch). The base walk watches the pending
// reports' racing instructions that have not fired yet. An attempt
// watches its pair, and, while a thread is held, the hold proof's
// observation points: the instructions with a side effect and each
// thread's first pick after a backward branch
// (interp.Machine.WatchArrivals). Every other step would find the
// breakpoint with nothing to do: the base walk acts only on a pending
// instruction, the pair logic only on the pair, and the proof only on
// the pair, a side effect or an arrival, and only while a thread is
// held. So the unwatched steps leave every decision — captures,
// releases, the cut of a doomed hold — on the step it was on, and hints,
// attempts and steps are those of a breakpoint called at every step
// (TestWatchAllOracle, TestFullNoiseVerifierCountsPinned).
package raceverify

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/race"
	"github.com/conanalysis/owl/internal/sched"
)

// MachineFactory builds a fresh machine for one verification run, wired to
// the given scheduler and breakpoint. The OWL pipeline binds this to the
// workload's module, inputs, and arguments.
type MachineFactory func(s interp.Scheduler, bp interp.BreakpointFunc) (*interp.Machine, error)

// Hint is the verifier's output for one report: verification status plus
// the §5.2 security hints.
type Hint struct {
	Report   *race.Report
	Verified bool
	// Attempts is the number of runs used.
	Attempts int

	// ReadVal is the value the read is about to observe; WriteVal the
	// value the write is about to store.
	ReadVal, WriteVal int64
	// VarName names the racing memory at the racing moment.
	VarName string
	// WritesNull is set when the racing write stores 0 into memory that
	// the reading side dereferences — the "NULL pointer dereference can be
	// triggered" hint.
	WritesNull bool
	// ReadsUninitialized is set when the read observes memory never
	// written on this run (still holding its initial zero).
	ReadsUninitialized bool
	// Schedule is the witness schedule up to the racing moment; replaying
	// it steers later verification runs.
	Schedule []interp.ThreadID
}

func (h *Hint) String() string {
	if !h.Verified {
		return fmt.Sprintf("race NOT verified after %d attempts: %s", h.Attempts, h.Report.ID())
	}
	s := fmt.Sprintf("race verified on %s: about to read %d, about to write %d",
		h.VarName, h.ReadVal, h.WriteVal)
	if h.WritesNull {
		s += " [NULL-pointer hint]"
	}
	if h.ReadsUninitialized {
		s += " [uninitialized-read hint]"
	}
	return s
}

// Verifier verifies race reports dynamically.
type Verifier struct {
	// Attempts is the number of differently seeded runs per report
	// (default 8). Reports the verifier cannot reproduce within the budget
	// are eliminated — the paper's R.V.E. column in Table 3 — accepting
	// that some real-but-fragile races are lost (§5.2 "two cases ... miss
	// real races").
	Attempts int
	// MaxSteps bounds each run (default 200000).
	MaxSteps int
	// HoldBudget bounds how many steps the verifier waits, after one
	// racing instruction is captured, for the partner thread to arrive
	// (default 15000). If the pair does not co-arrive within the budget,
	// the attempt gives up and the next seed is tried; "catching the race
	// in the racing moment" is inherently a co-arrival property. A hold
	// proven doomed gives up before the budget runs out.
	HoldBudget int

	// keepDoomed turns the doomed-hold proof off, so every hold waits
	// for its partner, a stall or HoldBudget: the reference the proof's
	// oracle test compares against.
	keepDoomed bool
	// fromStart runs every attempt from step 0 on its own machine
	// instead of resuming it from the seed's shared prefix: the
	// reference the shared prefix's oracle test compares against.
	fromStart bool
	// watchEvery watches every instruction of every machine, so the
	// breakpoints see each step as a per-step hook would: the reference
	// the watched-set differential test compares against.
	watchEvery bool
}

// New returns a verifier with default budgets.
func New() *Verifier { return &Verifier{Attempts: 8, MaxSteps: 200000, HoldBudget: 15000} }

// Batch is the outcome of VerifyAll, in report order.
type Batch struct {
	// Hints holds each report's hint, nil where the report failed.
	Hints []*Hint
	// Errs holds each report's failure: an error or panic in its
	// verification, or the context's error for a report it cut short.
	Errs []error
	// Steps counts the interpreter steps a batch that runs one seed at
	// a time executes, whatever the worker count: per seed, the base
	// walk up to the last firing among the reports still pending there
	// (or to the walk's end if one of them never fires), plus the steps
	// those reports' attempts took after their snapshots. Work seeds
	// running in parallel did for reports an earlier seed settled is
	// not counted.
	Steps int64
}

// Verify attempts to catch the report's race in the racing moment: a
// batch of one.
func (v *Verifier) Verify(mk MachineFactory, rep *race.Report) (*Hint, error) {
	b := v.VerifyAll(context.Background(), mk, []*race.Report{rep}, 1)
	return b.Hints[0], b.Errs[0]
}

// VerifyAll verifies every report, seed-major: attempt s of every
// report runs sched.NewRandom(s), and each report takes the first seed
// that verifies or fails it. Until either of a report's racing
// instructions first reaches the breakpoint, nothing is held and the
// run is the same for every report. So per seed, the reports still
// pending share one prefix, walked once by a base machine (see walk):
// each report's attempt resumes from a snapshot of the base at the loop
// iteration k at which its earlier racing instruction first fires, with
// its own breakpoint and a copy of the scheduler. A report neither of
// whose instructions fires fails the attempt without running: from step
// 0 it could only stall or exhaust the step budget.
//
// Up to workers seeds run at once, each on one goroutine. Seed s tries
// every report no earlier seed has settled (verified or failed) yet,
// and at a report's firing skips it if an earlier seed has settled it
// since. Taking a firing back is exact (see walk), so the base walk's
// trajectory does not depend on which reports it watches, and a
// report's attempt on seed s is the same whichever seeds run beside
// it. The merge gives each report its first verification or failure in
// seed order and drops the attempts later seeds made for it, so the
// batch is the same for every worker count.
//
// The hints are those Verify gives each report alone. An error or panic
// quarantines only its report, which takes no later seed; the context
// is checked before each seed.
func (v *Verifier) VerifyAll(ctx context.Context, mk MachineFactory, reps []*race.Report, workers int) *Batch {
	b := &Batch{Hints: make([]*Hint, len(reps)), Errs: make([]error, len(reps))}
	var pending []int
	for i, rep := range reps {
		b.Hints[i] = &Hint{Report: rep}
		if rep.Prev.Instr != nil && rep.Cur.Instr != nil {
			pending = append(pending, i)
		}
	}
	attempts := v.Attempts
	if attempts <= 0 {
		attempts = 8
	}
	var fx *interp.InstrSet
	if len(pending) > 0 {
		var err error
		if fx, err = moduleEffects(reps[pending[0]].Prev.Instr.Fn.Mod); err != nil {
			for _, i := range pending {
				b.Errs[i], b.Hints[i] = fmt.Errorf("race verifier: %w", err), nil
			}
			pending = nil
		}
	}
	if len(pending) == 0 {
		return b
	}
	workers = max(min(workers, attempts), 1)
	c := &batchRun{
		v: v, mk: mk, reps: reps, fx: fx, pending: pending,
		settled: make([]atomic.Int32, len(reps)),
		free:    make(chan *interp.Machine, workers),
	}
	runs := make([]*seedRun, attempts)
	metrics.ForEach(nil, "", attempts, workers, func(j int) {
		runs[j] = c.seed(ctx, j+1)
	})
	b.merge(runs, pending)
	return b
}

// batchRun is what the seeds of one VerifyAll share.
type batchRun struct {
	v       *Verifier
	mk      MachineFactory
	reps    []*race.Report
	fx      *interp.InstrSet // the module's side-effect words (moduleEffects)
	pending []int            // the reports with both racing instructions
	// settled[i] is the lowest seed that has verified or failed report
	// i so far, 0 for none.
	settled []atomic.Int32
	// free holds attempt machines to recycle (interp.RestoreInto), one
	// per worker at most. A plain free list, not a sync.Pool: the
	// runtime keeps a pool's items alive for up to two collections after
	// its batch ends.
	free chan *interp.Machine
}

// seedRun is one seed's attempts, indexed by report.
type seedRun struct {
	tries []try
	errs  []error
	// base is the base walk's trace up to the latest snapshot an attempt
	// was caught from (a view of the walk's buffer until the walk ends);
	// end counts the steps the base walk took.
	base []interp.ThreadID
	end  int64
}

// try is one report's attempt on one seed.
type try struct {
	// ran is set once the attempt started: resumed from the snapshot the
	// base took at iteration at, after from steps (both 0 from step 0).
	ran   bool
	at    int
	from  int64
	steps int64 // the attempt's steps after its snapshot
	hint  *Hint // a caught attempt's hint; its Schedule holds only the picks after the snapshot
}

// settledBefore reports whether a seed before seed has settled report i.
func (c *batchRun) settledBefore(i, seed int) bool {
	s := c.settled[i].Load()
	return s != 0 && int(s) < seed
}

// settle records that seed settled report i.
func (c *batchRun) settle(i, seed int) {
	for {
		s := c.settled[i].Load()
		if s != 0 && int(s) <= seed || c.settled[i].CompareAndSwap(s, int32(seed)) {
			return
		}
	}
}

// seed runs one seed's attempt of every report no earlier seed has
// settled, or returns nil if there is none.
func (c *batchRun) seed(ctx context.Context, seed int) *seedRun {
	var pend []int
	for _, i := range c.pending {
		if !c.settledBefore(i, seed) {
			pend = append(pend, i)
		}
	}
	if len(pend) == 0 {
		return nil
	}
	run := &seedRun{tries: make([]try, len(c.reps)), errs: make([]error, len(c.reps))}
	switch {
	case ctx.Err() != nil:
		for _, i := range pend {
			run.errs[i] = ctx.Err()
		}
	case c.v.fromStart:
		each(pend, run.errs, func(i int) error {
			h, n, err := c.v.tryOnce(c.mk, c.fx, uint64(seed), c.reps[i])
			run.tries[i] = try{ran: true, steps: n, hint: h}
			return err
		})
	default:
		c.walk(run, pend, seed)
	}
	c.settleAll(run, pend, seed)
	return run
}

// settleAll records the reports among idx that run verified or failed.
func (c *batchRun) settleAll(run *seedRun, idx []int, seed int) {
	for _, i := range idx {
		if run.tries[i].hint != nil || run.errs[i] != nil {
			c.settle(i, seed)
		}
	}
}

// walk runs one seed's attempt of the reports pend from the seed's
// shared prefix, in one walk of a base machine. When a report's earlier
// racing instruction first reaches the breakpoint, at loop iteration k,
// the breakpoint suspends the presenting thread; the walk takes back
// the suspension and the scheduler's draw, which leaves the base at the
// step boundary before iteration k, snapshots it, resumes every report
// first firing there, and runs iteration k again. The base trace at the
// snapshot has k entries, as every base iteration before k appended
// one. The base watches only the racing instructions that have not
// fired yet, so every other step runs without a breakpoint call; the
// attempts restore into a machine from c.free. The walk ends when every
// report has fired or been settled by an earlier seed.
func (c *batchRun) walk(run *seedRun, pend []int, seed int) {
	v := c.v
	// users maps each racing instruction that has not yet reached the
	// breakpoint to the reports it belongs to; started marks the reports
	// whose instruction has fired.
	users := make(map[*ir.Instr][]int, 2*len(pend))
	for _, i := range pend {
		rep := c.reps[i]
		users[rep.Prev.Instr] = append(users[rep.Prev.Instr], i)
		if rep.Cur.Instr != rep.Prev.Instr {
			users[rep.Cur.Instr] = append(users[rep.Cur.Instr], i)
		}
	}
	started := make([]bool, len(c.reps))
	left := len(pend)
	var group []int
	held := interp.ThreadID(-1)
	record := func(m *interp.Machine, t *interp.Thread, in *ir.Instr) interp.BPAction {
		rs, ok := users[in]
		if !ok {
			return interp.BPContinue
		}
		delete(users, in)
		if !v.watchEvery {
			m.Unwatch(in)
		}
		for _, i := range rs {
			if started[i] {
				continue
			}
			started[i] = true
			left--
			if !c.settledBefore(i, seed) {
				group = append(group, i)
			}
		}
		if len(group) == 0 {
			return interp.BPContinue
		}
		held = t.ID
		return interp.BPSuspend
	}
	// A failure of the base walk fails every report whose attempt had
	// not run yet.
	fail := func(err error) {
		for _, i := range pend {
			if !started[i] || slices.Contains(group, i) {
				run.errs[i] = err
			}
		}
	}
	defer func() {
		if r := recover(); r != nil {
			fail(fmt.Errorf("race verifier: panic: %v", r))
		}
	}()

	s := &rewinder{cur: *sched.NewRandom(uint64(seed))}
	m, err := c.mk(s, record)
	if err != nil {
		fail(fmt.Errorf("race verifier: build machine: %w", err))
		return
	}
	v.watchAll(m)
	for in := range users {
		m.Watch(in)
	}
	var spare *interp.Machine
	select {
	case spare = <-c.free:
	default:
	}
	for k := 0; k < v.maxSteps() && left > 0; k++ {
		if k&4095 == 0 && !c.live(pend, started, seed) {
			break // the reports left to fire were all settled by earlier seeds
		}
		if !m.Step() {
			break
		}
		if len(group) == 0 {
			continue
		}
		m.Resume(held)
		s.rewind()
		snap, from, at := m.Snapshot(), int64(m.StepCount()), k
		each(group, run.errs, func(i int) error {
			a := v.newAttempt(c.reps[i], c.fx)
			run.tries[i] = try{ran: true, at: at, from: from}
			rm, err := interp.RestoreInto(spare, snap, interp.Config{Sched: s.cur.Clone(), Breakpoint: a.breakpoint})
			if err != nil {
				return fmt.Errorf("race verifier: resume at iteration %d: %w", at, err)
			}
			spare = rm
			h := a.run(rm, at)
			run.tries[i].steps = int64(rm.StepCount()) - from
			run.tries[i].hint = h
			if h != nil {
				run.base = snap.Schedule()
			}
			return nil
		})
		c.settleAll(run, group, seed)
		group = group[:0]
		k-- // run iteration k again, past the breakpoint this time
	}
	run.end = int64(m.StepCount())
	// One copy of the base trace serves the seed (earlier snapshots'
	// traces are prefixes of the latest one's) and frees the walk's
	// buffer.
	run.base = slices.Clone(run.base)
	select {
	case c.free <- spare:
	default:
	}
}

// live reports whether a report of pend that has not fired yet is
// still unsettled by the seeds before seed.
func (c *batchRun) live(pend []int, started []bool, seed int) bool {
	for _, i := range pend {
		if !started[i] && !c.settledBefore(i, seed) {
			return true
		}
	}
	return false
}

// merge gives each pending report the outcome of the first seed that
// verified or failed it (with that seed as its Attempts), or the
// budget's Attempts if none did, and counts Steps seed-major.
func (b *Batch) merge(runs []*seedRun, pending []int) {
	first := make([]int, len(b.Hints)) // the settling seed, 0 for none
	for j, run := range runs {
		if run == nil {
			continue
		}
		for _, i := range pending {
			if first[i] == 0 && (run.tries[i].hint != nil || run.errs[i] != nil) {
				first[i] = j + 1
			}
		}
	}
	for j, run := range runs {
		if run != nil {
			b.Steps += run.steps(pending, first, j+1)
		}
	}
	for _, i := range pending {
		s := first[i]
		switch {
		case s == 0:
			b.Hints[i].Attempts = len(runs)
		case runs[s-1].errs[i] != nil:
			b.Errs[i], b.Hints[i] = runs[s-1].errs[i], nil
		default:
			t := runs[s-1].tries[i]
			h := t.hint
			h.Verified, h.Attempts = true, s
			h.Schedule = join(runs[s-1].base[:t.at], h.Schedule)
			b.Hints[i] = h
		}
	}
}

// steps counts the steps seed spent on the reports pending there (those
// first settled on or after it): the base walk up to the last firing
// among them, or to its end if one never fired, plus their attempts. A
// one-seed-at-a-time run takes exactly these; the rest was speculation.
func (run *seedRun) steps(pending, first []int, seed int) int64 {
	base, n := int64(0), int64(0)
	for _, i := range pending {
		if first[i] != 0 && first[i] < seed {
			continue
		}
		t := run.tries[i]
		if !t.ran {
			base = max(base, run.end)
			continue
		}
		base = max(base, t.from)
		n += t.steps
	}
	return base + n
}

// join returns a caught attempt's whole schedule: the base walk's picks
// before its snapshot, then its own.
func join(base, own []interp.ThreadID) []interp.ThreadID {
	if len(base) == 0 {
		return own
	}
	return append(append(make([]interp.ThreadID, 0, len(base)+len(own)), base...), own...)
}

// rewinder is the base walk's scheduler: a seeded sched.Random that can
// take back its latest draw. It saves the generator's state before each
// draw and restores it on rewind.
type rewinder struct {
	cur, saved sched.Random
}

// Next implements interp.Scheduler.
func (s *rewinder) Next(runnable []interp.ThreadID, step int) interp.ThreadID {
	s.saved = s.cur
	return s.cur.Next(runnable, step)
}

// rewind takes back the latest draw.
func (s *rewinder) rewind() { s.cur = s.saved }

// each runs fn(i) for every i in idx in turn, recording a failure (an
// error or a panic) in errs[i].
func each(idx []int, errs []error, fn func(i int) error) {
	for _, i := range idx {
		func() {
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("race verifier: panic: %v", r)
				}
			}()
			if err := fn(i); err != nil {
				errs[i] = err
			}
		}()
	}
}

// tryOnce performs one verification run of rep from step 0 and returns
// the hint if the racing moment was caught, and the steps the run took.
func (v *Verifier) tryOnce(mk MachineFactory, fx *interp.InstrSet, seed uint64, rep *race.Report) (*Hint, int64, error) {
	a := v.newAttempt(rep, fx)
	m, err := mk(sched.NewRandom(seed), a.breakpoint)
	if err != nil {
		return nil, 0, fmt.Errorf("race verifier: build machine: %w", err)
	}
	h := a.run(m, 0)
	return h, int64(m.StepCount()), nil
}

func (v *Verifier) maxSteps() int {
	if v.MaxSteps <= 0 {
		return 200000
	}
	return v.MaxSteps
}

// attempt is one verification run of one report: the thread-specific
// breakpoints' state and the loop that steps the machine.
type attempt struct {
	v              *Verifier
	instrA, instrB *ir.Instr
	rep            *race.Report
	maxSteps       int
	holdBudget     int

	heldA, heldB interp.ThreadID
	passOnce     map[interp.ThreadID]int
	proof        *holdProof
	effects      *interp.InstrSet // the proof's side-effect words
	doomed       bool
}

func (v *Verifier) newAttempt(rep *race.Report, fx *interp.InstrSet) *attempt {
	a := &attempt{
		v: v, effects: fx,
		instrA: rep.Prev.Instr, instrB: rep.Cur.Instr, rep: rep,
		maxSteps: v.maxSteps(), holdBudget: v.HoldBudget,
		heldA: -1, heldB: -1,
	}
	if a.holdBudget <= 0 {
		a.holdBudget = 15000
	}
	if !v.keepDoomed {
		a.proof = newHoldProof(a.instrA, a.instrB, fx)
	}
	return a
}

// breakpoint suspends the first thread to reach each racing instruction
// (two different threads), except threads owed a pass after a release.
// The machine calls it at the pair and, while a thread is held, at the
// proof's observation points (see arm).
func (a *attempt) breakpoint(m *interp.Machine, t *interp.Thread, in *ir.Instr) interp.BPAction {
	if a.proof != nil && a.proof.observe(m, t, in, a.heldA, a.heldB) {
		a.doomed = true
	}
	if in != a.instrA && in != a.instrB {
		return interp.BPContinue
	}
	if a.passOnce[t.ID] > 0 {
		a.passOnce[t.ID]--
		return interp.BPContinue
	}
	if in == a.instrA && a.heldA < 0 && t.ID != a.heldB {
		a.heldA = t.ID
		a.arm(m)
		return interp.BPSuspend
	}
	if in == a.instrB && a.heldB < 0 && t.ID != a.heldA {
		a.heldB = t.ID
		a.arm(m)
		return interp.BPSuspend
	}
	return interp.BPContinue
}

// release lets a held thread run on past its breakpoint once.
func (a *attempt) release(m *interp.Machine, held *interp.ThreadID) {
	m.Resume(*held)
	if a.passOnce == nil {
		a.passOnce = make(map[interp.ThreadID]int)
	}
	a.passOnce[*held]++
	*held = -1
	a.arm(m)
}

// arm brings the proof's observation points in line with the held
// set. While a thread is held, the machine also stops at every word
// with a side effect and at each thread's first pick after a backward
// branch, which are all the steps the proof acts on. While none is
// held the proof acts on nothing, and only the pair stays watched.
func (a *attempt) arm(m *interp.Machine) {
	if a.proof == nil {
		return
	}
	on := a.heldA >= 0 || a.heldB >= 0
	if on == a.proof.armed {
		return
	}
	a.proof.armed = on
	m.WatchArrivals(on)
	if a.v.watchEvery {
		return // every instruction stays watched
	}
	m.WatchSet(a.effects, on)
	if !on {
		// The pair may have a side effect: it stays watched.
		m.Watch(a.instrA)
		m.Watch(a.instrB)
	}
}

// run steps machine m, whose breakpoint is a.breakpoint, from loop
// iteration from and returns the hint if the racing moment was caught.
// MaxSteps and HoldBudget count loop iterations, not machine steps (a
// suspension takes an iteration but no step), and a resumed attempt
// starts at the iteration its snapshot was taken before, so its bounds
// fall where a run from step 0 puts them. The hint's Schedule holds the
// picks after the first from: the attempt's own.
func (a *attempt) run(machine *interp.Machine, from int) *Hint {
	if a.proof != nil {
		defer a.proof.release()
	}
	a.v.watchAll(machine)
	machine.Watch(a.instrA)
	machine.Watch(a.instrB)
	heldSince := -1
	for i := from; i < a.maxSteps; i++ {
		if a.heldA >= 0 && a.heldB >= 0 {
			if h := racingMoment(machine, a.heldA, a.heldB, a.rep, from); h != nil {
				return h
			}
			// Suspended at the pair but not on the same address (e.g. two
			// different array elements): release the earlier capture and
			// keep hunting.
			a.release(machine, &a.heldA)
		}
		switch {
		case a.heldA >= 0 || a.heldB >= 0:
			if heldSince < 0 {
				heldSince = i
			} else if i-heldSince > a.holdBudget {
				// The partner is not coming: give up this attempt rather
				// than spin the rest of the step budget away.
				return nil
			}
		default:
			heldSince = -1
		}
		if a.doomed {
			// No thread can ever reach the partner instruction (see
			// holdProof): the hold could only time out.
			return nil
		}
		if !machine.Step() {
			if machine.Stall() != interp.StallSuspended {
				return nil
			}
			// Livelock: the program cannot make progress while a
			// breakpoint holds a thread others wait on. Temporarily
			// release one triggered breakpoint (§5.2).
			switch {
			case a.heldA >= 0:
				a.release(machine, &a.heldA)
			case a.heldB >= 0:
				a.release(machine, &a.heldB)
			default:
				return nil
			}
		}
	}
	return nil
}

// watchAll watches every instruction of m's module under watchEvery.
func (v *Verifier) watchAll(m *interp.Machine) {
	if !v.watchEvery {
		return
	}
	for _, f := range m.Mod().Funcs {
		for _, in := range f.Instrs() {
			m.Watch(in)
		}
	}
}

// racingMoment checks that the two suspended threads' pending accesses
// conflict, and if so returns the security hints, with the schedule
// after the first from picks.
func racingMoment(m *interp.Machine, ta, tb interp.ThreadID, rep *race.Report, from int) *Hint {
	pa, okA := m.Pending(ta)
	pb, okB := m.Pending(tb)
	if !okA || !okB {
		return nil
	}
	if pa.Addr != pb.Addr {
		return nil
	}
	if !pa.IsWrite && !pb.IsWrite {
		return nil
	}
	hint := &Hint{Report: rep}
	// Order so that rd is the read side when there is one.
	rd, wr := pa, pb
	if pa.IsWrite && !pb.IsWrite {
		rd, wr = pb, pa
	}
	hint.VarName = m.Mem().NameFor(pa.Addr)
	hint.ReadVal = rd.Val
	hint.WriteVal = wr.Val
	if wr.IsWrite && wr.Val == 0 && pointerUse(rd.Instr) {
		hint.WritesNull = true
	}
	if !rd.IsWrite && rd.Val == 0 && neverWritten(m, pa.Addr) {
		hint.ReadsUninitialized = true
	}
	hint.Schedule = m.ScheduleSince(from)
	// Release both threads so the caller can finish the run if desired.
	m.Resume(ta)
	m.Resume(tb)
	return hint
}

// pointerUse reports whether the value loaded by in is later used as an
// address (load/store pointer operand or indirect callee) in the same
// function — the static half of the NULL-pointer hint.
func pointerUse(in *ir.Instr) bool {
	if in == nil || in.Op != ir.OpLoad || in.Dst == "" || in.Fn == nil {
		return false
	}
	derived := map[string]bool{in.Dst: true}
	for _, cand := range in.Fn.Instrs() {
		if cand.Index <= in.Index {
			continue
		}
		switch cand.Op {
		case ir.OpLoad:
			if cand.Args[0].Kind == ir.OperandReg && derived[cand.Args[0].Name] {
				return true
			}
		case ir.OpStore:
			if cand.Args[1].Kind == ir.OperandReg && derived[cand.Args[1].Name] {
				return true
			}
		case ir.OpCall:
			if cand.Callee().Kind == ir.OperandReg && derived[cand.Callee().Name] {
				return true
			}
		case ir.OpGep:
			if cand.Args[0].Kind == ir.OperandReg && derived[cand.Args[0].Name] && cand.Dst != "" {
				derived[cand.Dst] = true
			}
		}
	}
	return false
}

// neverWritten reports whether the address still holds its load-time
// initial image (heuristic: value zero and block is heap — globals have
// declared initializers, so zero there is usually intentional).
func neverWritten(m *interp.Machine, addr int64) bool {
	b := m.Mem().Find(addr)
	return b != nil && b.Kind == interp.BlockHeap && m.Mem().Peek(addr) == 0
}
