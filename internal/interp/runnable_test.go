package interp_test

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/sched"
	"github.com/conanalysis/owl/internal/workloads"
)

// oracleSched wraps a scheduler and checks, at every Next and Hold
// call, that the runnable set the machine hands over equals a fresh
// scan of its threads: the IDs of live threads with Runnable(step), in
// ID order. A Hold is passed on when the inner scheduler holds, and
// declined otherwise. Skip must receive a set a Hold of the same window
// saw, unchanged by the picks it commits: the current hold's, or for a
// fast-forward, that of a hold of the confirming turn. The first
// mismatch is kept in err, and every Hold after it declines, so a
// window fed a wrong set cannot spin without progress.
type oracleSched struct {
	inner interp.Scheduler
	m     *interp.Machine
	calls int
	// held holds the sets the window's holds were granted for, keyed
	// by heldKey.
	held map[string]bool
	key  []byte
	err  error
}

func (o *oracleSched) check(call string, runnable []interp.ThreadID, step int) {
	o.calls++
	if o.err != nil {
		return
	}
	var want []interp.ThreadID
	for _, t := range o.m.Threads() {
		if t.Status != interp.StatusDone && t.Status != interp.StatusFaulted && t.Runnable(step) {
			want = append(want, t.ID)
		}
	}
	if !slices.Equal(runnable, want) {
		o.err = fmt.Errorf("%s at step %d (call %d): runnable %v, fresh scan %v", call, step, o.calls, runnable, want)
	}
}

func (o *oracleSched) heldKey(runnable []interp.ThreadID) string {
	o.key = o.key[:0]
	for _, id := range runnable {
		o.key = binary.AppendUvarint(o.key, uint64(id))
	}
	return string(o.key)
}

func (o *oracleSched) Next(runnable []interp.ThreadID, step int) interp.ThreadID {
	o.check("Next", runnable, step)
	clear(o.held)
	return o.inner.Next(runnable, step)
}

func (o *oracleSched) Hold(runnable []interp.ThreadID, step int) (interp.ThreadID, int, bool) {
	o.check("Hold", runnable, step)
	hs, ok := o.inner.(interp.HoldingScheduler)
	if !ok || o.err != nil {
		return 0, 0, false
	}
	tid, until, ok := hs.Hold(runnable, step)
	if !ok {
		clear(o.held)
		return 0, 0, false
	}
	if o.held == nil {
		o.held = map[string]bool{}
	}
	o.held[o.heldKey(runnable)] = true
	return tid, until, true
}

func (o *oracleSched) Skip(runnable []interp.ThreadID, step, k int) {
	if o.err == nil && !o.held[o.heldKey(runnable)] {
		o.err = fmt.Errorf("Skip at step %d: runnable %v, which no Hold of the window saw", step, runnable)
	}
	o.inner.(interp.HoldingScheduler).Skip(runnable, step, k)
}

// holdingBreakpoint mimics the race verifier's thread-specific
// breakpoints: it suspends a thread at every 61st memory access while
// fewer than two are held, and drive, which watches every load and
// store, releases them again.
type holdingBreakpoint struct {
	held     []interp.ThreadID
	accesses int
}

func (h *holdingBreakpoint) bp(m *interp.Machine, t *interp.Thread, in *ir.Instr) interp.BPAction {
	if in.Op != ir.OpLoad && in.Op != ir.OpStore {
		return interp.BPContinue
	}
	if h.accesses++; h.accesses%61 != 0 || len(h.held) >= 2 {
		return interp.BPContinue
	}
	h.held = append(h.held, t.ID)
	return interp.BPSuspend
}

// drive hand-steps m like the race verifier's loop: it releases the
// oldest held thread when two are held or every 40 steps, suspends the
// first runnable thread through Suspend every 500 steps, and releases
// everything when only suspended threads block progress.
func (h *holdingBreakpoint) drive(m *interp.Machine) {
	for _, f := range m.Mod().Funcs {
		for _, in := range f.Instrs() {
			if in.Op == ir.OpLoad || in.Op == ir.OpStore {
				m.Watch(in)
			}
		}
	}
	for i := 1; ; i++ {
		if len(h.held) > 0 && (len(h.held) == 2 || i%40 == 0) {
			m.Resume(h.held[0])
			h.held = h.held[1:]
		}
		if i%500 == 0 && len(h.held) < 2 {
			for _, t := range m.Threads() {
				if t.Runnable(m.StepCount()) {
					m.Suspend(t.ID)
					h.held = append(h.held, t.ID)
					break
				}
			}
		}
		if !m.Step() {
			if m.Stall() != interp.StallSuspended || len(h.held) == 0 {
				return
			}
			for _, id := range h.held {
				m.Resume(id)
			}
			h.held = h.held[:0]
		}
	}
}

// contendedSrc adds what the corpus models lack: contended mutexes
// taken both directly (the compiled engine's lock words) and through
// function pointers (the intrinsic path), sleeping while holding a lock,
// and a thread faulting while main waits to join it.
const contendedSrc = `
global @m = 0
global @x = 0
global @lk = 0
global @ul = 0

func @worker(%id) {
entry:
  jmp head
head:
  %i = phi [entry: 0], [body: %i2]
  %c = icmp lt %i, 30
  br %c, body, done
body:
  call @mutex_lock(@m)
  %v = load @x
  call @io_delay(%id)
  %v2 = add %v, 1
  store %v2, @x
  call @mutex_unlock(@m)
  %f = load @lk
  call %f(@m)
  %w = load @x
  store %w, @x
  %g = load @ul
  call %g(@m)
  %d = rem %i, 3
  call @io_delay(%d)
  %i2 = add %i, 1
  jmp head
done:
  ret %id
}
func @crasher() {
entry:
  call @mutex_lock(@m)
  call @io_delay(3)
  call @mutex_unlock(@m)
  %z = div 1, 0
  ret 0
}
func @main() {
entry:
  %a = func @mutex_lock
  store %a, @lk
  %b = func @mutex_unlock
  store %b, @ul
  %t1 = call @spawn(@worker, 0)
  %t2 = call @spawn(@worker, 1)
  %t3 = call @spawn(@worker, 2)
  %t4 = call @spawn(@crasher)
  %r4 = call @join(%t4)
  %r1 = call @join(%t1)
  %r2 = call @join(%t2)
  %r3 = call @join(%t3)
  ret 0
}
`

// wideSrc runs 150 interpreter threads, so the runnable set's bitset
// spans three words, with sleepers and a contended mutex spread across
// all of them.
const wideSrc = `
global @m = 0
global @x = 0

func @worker(%id) {
entry:
  jmp head
head:
  %i = phi [entry: 0], [body: %i2]
  %c = icmp lt %i, 3
  br %c, body, done
body:
  %d = rem %id, 5
  call @io_delay(%d)
  call @mutex_lock(@m)
  %v = load @x
  %v2 = add %v, 1
  store %v2, @x
  call @mutex_unlock(@m)
  %i2 = add %i, 1
  jmp head
done:
  ret %id
}
func @main() {
entry:
  jmp spawn
spawn:
  %n = phi [entry: 0], [spawn: %n2]
  %t = call @spawn(@worker, %n)
  %n2 = add %n, 1
  %c = icmp lt %n2, 150
  br %c, spawn, wait
wait:
  %x = load @x
  %more = icmp lt %x, 450
  br %more, nap, done
nap:
  call @io_delay(7)
  jmp wait
done:
  ret 0
}
`

// TestRunnableSetOracle checks the machine's incrementally maintained
// runnable set against a fresh scan at every scheduler call, in five
// modes: RunLoop (held windows under PCT, sleepers), Step under a
// breakpoint that suspends and resumes threads, Step under
// suspend/resume churn between steps, a machine restored from a mid-run
// snapshot, and the same snapshot restored into machines that ran other
// schedules to their end. The RunLoop and restored modes run under
// Random, which holds nothing, and under PCT, whose holds runHeld
// re-asks at every runnable-set change. It covers every corpus model
// and input recipe at both noise levels, plus contendedSrc and wideSrc
// (more than 128 threads) under both engines, each under scheduler
// seeds 1-4.
func TestRunnableSetOracle(t *testing.T) {
	for _, name := range workloads.Names() {
		for _, lvl := range []workloads.NoiseLevel{workloads.NoiseLight, workloads.NoiseFull} {
			w := workloads.Get(name, lvl)
			for _, rec := range w.Recipes {
				tag := fmt.Sprintf("%s noise=%d recipe=%s", name, lvl, rec.Name)
				checkOracleModes(t, tag, interp.Config{Module: w.Module, Entry: w.Entry, Inputs: rec.Inputs, MaxSteps: w.MaxSteps})
			}
		}
	}
	mod := ir.MustParse("contended.oir", contendedSrc)
	wide := ir.MustParse("wide.oir", wideSrc)
	for _, eng := range []interp.Engine{interp.EngineTree, interp.EngineBytecode} {
		checkOracleModes(t, "contended engine="+string(eng), interp.Config{Module: mod, MaxSteps: 20000, Engine: eng})
		checkOracleModes(t, "wide engine="+string(eng), interp.Config{Module: wide, MaxSteps: 40000, Engine: eng})
	}
	// wideSrc is only worth its time if it does cross two bitset words.
	m, _ := newOracleMachine(t, interp.Config{Module: wide, MaxSteps: 40000}, sched.NewRandom(1))
	if res := m.Run(); len(m.Threads()) <= 128 || res.Stall != interp.StallDone {
		t.Fatalf("wideSrc ran %d threads to %v, want more than 128 to the end", len(m.Threads()), res.Stall)
	}
}

func checkOracleModes(t *testing.T, tag string, cfg interp.Config) {
	t.Helper()
	for seed := uint64(1); seed <= 4; seed++ {
		tag := fmt.Sprintf("%s seed=%d", tag, seed)
		for _, s := range oracleScheds {
			checkRunLoop(t, tag+" sched="+s.name, cfg, s.mk(seed, cfg.MaxSteps))
			checkRestored(t, tag+" sched="+s.name, cfg, seed, s.mk)
		}
		checkBreakpointSteps(t, tag, cfg, seed)
		checkChurn(t, tag, cfg, seed)
	}
}

// oracleScheds are the schedulers RunLoop runs under in the oracle's
// modes: Random steps every pick, PCT over the step bound (as the
// coverage engine configures it) holds.
var oracleScheds = []struct {
	name string
	mk   func(seed uint64, maxSteps int) interp.Scheduler
}{
	{"random", func(seed uint64, _ int) interp.Scheduler { return sched.NewRandom(seed) }},
	{"pct", func(seed uint64, maxSteps int) interp.Scheduler { return sched.NewPCT(seed, 3, maxSteps) }},
}

func newOracleMachine(t *testing.T, cfg interp.Config, inner interp.Scheduler) (*interp.Machine, *oracleSched) {
	t.Helper()
	o := &oracleSched{inner: inner}
	cfg.Sched = o
	m, err := interp.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o.m = m
	return m, o
}

func checkRunLoop(t *testing.T, tag string, cfg interp.Config, s interp.Scheduler) {
	m, o := newOracleMachine(t, cfg, s)
	m.RunLoop()
	if o.err != nil {
		t.Fatalf("%s RunLoop: %v", tag, o.err)
	}
}

func checkBreakpointSteps(t *testing.T, tag string, cfg interp.Config, seed uint64) {
	h := &holdingBreakpoint{}
	cfg.Breakpoint = h.bp
	m, o := newOracleMachine(t, cfg, sched.NewRandom(seed))
	h.drive(m)
	if o.err != nil {
		t.Fatalf("%s breakpoint Step: %v", tag, o.err)
	}
}

// checkChurn suspends and resumes threads between steps: every step
// flips one thread there and back, every third step keeps one
// suspended, and the oldest of three held is let go.
func checkChurn(t *testing.T, tag string, cfg interp.Config, seed uint64) {
	m, o := newOracleMachine(t, cfg, sched.NewRandom(seed))
	var held []interp.ThreadID
	for i := 0; i < 2*cfg.MaxSteps; i++ {
		ths := m.Threads()
		id := ths[(i*7+int(seed))%len(ths)].ID
		m.Suspend(id)
		m.Resume(id)
		if i%3 == 0 {
			m.Suspend(id)
			held = append(held, id)
		}
		if len(held) > 2 {
			m.Resume(held[0])
			held = held[1:]
		}
		if !m.Step() {
			if len(held) == 0 {
				break
			}
			for _, id := range held {
				m.Resume(id)
			}
			held = held[:0]
		}
	}
	if o.err != nil {
		t.Fatalf("%s churn: %v", tag, o.err)
	}
}

// checkRestored resumes a mid-run snapshot in a fresh machine, then
// twice more in machines recycled by RestoreInto: first the machine
// that ran the whole schedule from step 0, then the restore before.
// Every machine runs under a scheduler from mk.
func checkRestored(t *testing.T, tag string, cfg interp.Config, seed uint64, mk func(seed uint64, maxSteps int) interp.Scheduler) {
	ref, _ := newOracleMachine(t, cfg, mk(seed, cfg.MaxSteps))
	ref.RunLoop()
	m, _ := newOracleMachine(t, cfg, mk(seed, cfg.MaxSteps))
	for m.StepCount() < ref.StepCount()/2 && m.Step() {
	}
	snap := m.Snapshot()
	// RestoreInto(ref, ...) returns ref, so the third restore recycles
	// the second.
	for k, into := range []*interp.Machine{nil, ref, ref} {
		o := &oracleSched{inner: mk(seed+100+uint64(k), cfg.MaxSteps)}
		r, err := interp.RestoreInto(into, snap, interp.Config{Sched: o})
		if err != nil {
			t.Fatal(err)
		}
		o.m = r
		r.RunLoop()
		if o.err != nil {
			t.Fatalf("%s restored (%d) at step %d: %v", tag, k, m.StepCount(), o.err)
		}
	}
}
