package race

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/sched"
	"github.com/conanalysis/owl/internal/workloads"
)

// eventRecorder records every event as a flat descriptor string so two
// runs can be compared event-by-event. It deliberately declares no
// stack need (no StackPolicy refinement here) so the recorder itself
// does not change which events carry stacks.
type eventRecorder struct {
	events []string
}

func (r *eventRecorder) OnEvent(m *interp.Machine, e *interp.Event) {
	loc := "?"
	if e.Instr != nil {
		loc = fmt.Sprintf("%s#%d@%s", e.Instr.Fn.Name, e.Instr.Index, e.Instr.Loc())
	}
	r.events = append(r.events, fmt.Sprintf("step=%d kind=%s tid=%d addr=%d val=%d aux=%d in=%s",
		e.Step, e.Kind, e.TID, e.Addr, e.Val, e.Aux, loc))
}

// stackRecorder additionally materializes call stacks for accesses,
// exercising the StackRef capture path under both engines.
type stackRecorder struct {
	eventRecorder
	m *interp.Machine
}

func (r *stackRecorder) NeedsStack(k interp.EventKind) bool {
	return k == interp.EvRead || k == interp.EvWrite
}

func (r *stackRecorder) OnEvent(m *interp.Machine, e *interp.Event) {
	r.eventRecorder.OnEvent(m, e)
	if e.IsAccess() {
		r.events = append(r.events, "stack:\n"+m.EventStack(e).String())
	}
}

// runFingerprint renders everything observable about a finished run:
// result summary, faults (with stacks), output, schedule trace, and
// the arena fingerprint.
func runFingerprint(res *interp.Result, m *interp.Machine) string {
	s := fmt.Sprintf("exit=%d steps=%d stall=%s uid=%d truncated=%v\n",
		res.ExitCode, res.Steps, res.Stall, res.UID, res.MaxStepsHit)
	s += fmt.Sprintf("schedule=%v\n", res.Schedule)
	for _, f := range res.Faults {
		s += fmt.Sprintf("fault: %s addr=%d step=%d\nstack:\n%s\n", f.Error(), f.Addr, f.Step, f.Stack)
	}
	s += fmt.Sprintf("output=%q\n", res.Output)
	s += fmt.Sprintf("exec=%q\n", m.ExecLog())
	s += fmt.Sprintf("arena=%#x\n", m.Mem().Fingerprint())
	return s
}

// diffRun names one program execution for diffEngines: the module, its
// entry function ("" means main), the input tape, and the step budget
// (0 means the interpreter default).
type diffRun struct {
	mod      *ir.Module
	entry    string
	inputs   []int64
	maxSteps int
}

// diffEngines runs r under both engines with identical scheduler seeds
// and returns the two full observable transcripts.
func diffEngines(t *testing.T, r diffRun, schedSeed uint64, stacks bool) (tree, bc string) {
	t.Helper()
	run := func(engine interp.Engine) string {
		var rec interface {
			interp.Observer
		}
		var events *[]string
		if stacks {
			sr := &stackRecorder{}
			rec, events = sr, &sr.events
		} else {
			er := &eventRecorder{}
			rec, events = er, &er.events
		}
		d := NewDetector()
		m, err := interp.New(interp.Config{
			Module: r.mod, Entry: r.entry, Inputs: r.inputs, MaxSteps: r.maxSteps,
			Sched:     sched.NewRandom(schedSeed),
			Engine:    engine,
			Observers: []interp.Observer{d, rec},
		})
		if err != nil {
			t.Fatalf("engine %s: new machine: %v", engine, err)
		}
		res := m.Run()
		var b strings.Builder
		b.WriteString(runFingerprint(res, m))
		fmt.Fprintf(&b, "reports=%v\n", reportSet(d.Reports()))
		for _, e := range *events {
			b.WriteString(e)
			b.WriteByte('\n')
		}
		return b.String()
	}
	return run(interp.EngineTree), run(interp.EngineBytecode)
}

// TestDifferentialEngines is the compiled engine's semantic gate: a
// grid of generated concurrent programs × seeded random schedules must
// produce byte-identical transcripts (events, faults, output, schedule
// trace, arena fingerprint, race reports) under the tree-walking and
// bytecode engines. The scheduler is consulted identically step by
// step, so any divergence is an engine bug, not schedule noise.
func TestDifferentialEngines(t *testing.T) {
	for progSeed := int64(1); progSeed <= 25; progSeed++ {
		src := genProgram(rand.New(rand.NewSource(progSeed)))
		mod, err := ir.Parse("enginediff_test.oir", src)
		if err != nil {
			t.Fatalf("prog %d: generated program does not parse: %v\n%s", progSeed, err, src)
		}
		for schedSeed := uint64(1); schedSeed <= 4; schedSeed++ {
			tree, bc := diffEngines(t, diffRun{mod: mod}, schedSeed, false)
			if tree != bc {
				t.Fatalf("prog %d sched %d: engines diverge\nprogram:\n%s\n--- tree ---\n%s\n--- bytecode ---\n%s",
					progSeed, schedSeed, src, tree, bc)
			}
		}
	}
}

// TestDifferentialEnginesCorpus extends the transcript gate from
// generated programs to the built-in workload corpus: every model at
// both noise levels, under each input recipe and scheduler seeds 1-4.
// Full-noise models run long, thread-heavy schedules whose runnable
// sets change at depths the generated grid never reaches.
func TestDifferentialEnginesCorpus(t *testing.T) {
	for _, name := range workloads.Names() {
		for _, lvl := range []workloads.NoiseLevel{workloads.NoiseLight, workloads.NoiseFull} {
			w := workloads.Get(name, lvl)
			for _, rec := range w.Recipes {
				r := diffRun{mod: w.Module, entry: w.Entry, inputs: rec.Inputs, maxSteps: w.MaxSteps}
				for schedSeed := uint64(1); schedSeed <= 4; schedSeed++ {
					tree, bc := diffEngines(t, r, schedSeed, false)
					if tree != bc {
						t.Fatalf("%s noise=%d recipe=%s sched %d: engines diverge\n%s",
							name, lvl, rec.Name, schedSeed, firstDiff(tree, bc))
					}
				}
			}
		}
	}
}

// firstDiff renders the first line where two transcripts disagree; the
// corpus transcripts run to megabytes, too long to print whole.
func firstDiff(tree, bc string) string {
	tl, bl := strings.Split(tree, "\n"), strings.Split(bc, "\n")
	for i := 0; i < len(tl) && i < len(bl); i++ {
		if tl[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  tree:     %s\n  bytecode: %s", i+1, tl[i], bl[i])
		}
	}
	return fmt.Sprintf("one transcript is a prefix of the other (%d vs %d lines)", len(tl), len(bl))
}

// TestDifferentialEngineStacks re-runs a slice of the grid with an
// observer that demands materialized call stacks for every access,
// pinning StackRef capture and EventStack rendering to byte equality
// across engines (compiled frames must report the same function,
// position, and caller chain as tree frames).
func TestDifferentialEngineStacks(t *testing.T) {
	for progSeed := int64(1); progSeed <= 8; progSeed++ {
		src := genProgram(rand.New(rand.NewSource(progSeed)))
		mod, err := ir.Parse("enginediff_test.oir", src)
		if err != nil {
			t.Fatalf("prog %d: parse: %v", progSeed, err)
		}
		tree, bc := diffEngines(t, diffRun{mod: mod}, 3, true)
		if tree != bc {
			t.Fatalf("prog %d: stack transcripts diverge\nprogram:\n%s\n--- tree ---\n%s\n--- bytecode ---\n%s",
				progSeed, src, tree, bc)
		}
	}
}

// TestNoObserverBytecodeStepIsAllocationFree extends the per-step
// allocation pin to the compiled engine: the no-observer bytecode step
// must not touch the heap either.
func TestNoObserverBytecodeStepIsAllocationFree(t *testing.T) {
	m := stepLoopEngine(t, interp.EngineBytecode)
	for i := 0; i < 50_000; i++ {
		if !m.Step() {
			t.Fatal("program ended during warmup")
		}
	}
	avg := testing.AllocsPerRun(20_000, func() {
		if !m.Step() {
			t.Fatal("program ended during measurement")
		}
	})
	if avg != 0 {
		t.Fatalf("no-observer bytecode step allocates %.2f allocs/op, want 0", avg)
	}
}

// TestSameEpochDetectorBytecodeStepIsAllocationFree pins the
// detector-attached same-epoch fast path at zero allocations under the
// compiled engine too.
func TestSameEpochDetectorBytecodeStepIsAllocationFree(t *testing.T) {
	d := NewDetector()
	m := stepLoopEngine(t, interp.EngineBytecode, d)
	for i := 0; i < 50_000; i++ {
		if !m.Step() {
			t.Fatal("program ended during warmup")
		}
	}
	avg := testing.AllocsPerRun(20_000, func() {
		if !m.Step() {
			t.Fatal("program ended during measurement")
		}
	})
	if avg != 0 {
		t.Fatalf("same-epoch bytecode step allocates %.2f allocs/op, want 0", avg)
	}
}

// sleeperLoopSrc keeps three threads cycling through io_delay while
// main spins, so every stretch of steps has sleepers pending and waking.
const sleeperLoopSrc = `
global @x = 0

func @sleeper() {
entry:
  jmp loop
loop:
  %i = phi [entry: 0], [loop: %i2]
  %v = load @x
  call @io_delay(3)
  store %v, @x
  %i2 = add %i, 1
  %c = icmp lt %i2, 2000000
  br %c, loop, done
done:
  ret 0
}
func @main() {
entry:
  %t1 = call @spawn(@sleeper)
  %t2 = call @spawn(@sleeper)
  %t3 = call @spawn(@sleeper)
  jmp loop
loop:
  %i = phi [entry: 0], [loop: %i2]
  %v = load @x
  store %v, @x
  %i2 = add %i, 1
  %c = icmp lt %i2, 2000000
  br %c, loop, done
done:
  ret 0
}
`

// TestBreakpointSleepersBytecodeStepIsAllocationFree extends the
// per-step allocation pin to the verifiers' stepping mode: Step with a
// breakpoint attached and every instruction watched, with arrival
// watching armed, while threads sleep and wake, which exercises the
// incremental runnable set's transition list and sleeper heap. Once
// they have grown to the thread count, a step must not touch the heap.
func TestBreakpointSleepersBytecodeStepIsAllocationFree(t *testing.T) {
	mod, err := ir.Parse("sleepers.oir", sleeperLoopSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m, err := interp.New(interp.Config{
		Module: mod, Sched: sched.NewRandom(1), MaxSteps: 100_000_000,
		Breakpoint: func(*interp.Machine, *interp.Thread, *ir.Instr) interp.BPAction { return interp.BPContinue },
	})
	if err != nil {
		t.Fatalf("new machine: %v", err)
	}
	for _, f := range mod.Funcs {
		for _, in := range f.Instrs() {
			m.Watch(in)
		}
	}
	m.WatchArrivals(true)
	slept := 0
	for i := 0; i < 50_000; i++ {
		if !m.Step() {
			t.Fatal("program ended during warmup")
		}
		for _, th := range m.Threads() {
			if th.Status == interp.StatusSleeping {
				slept++
			}
		}
	}
	if slept == 0 {
		t.Fatal("no thread slept during warmup")
	}
	avg := testing.AllocsPerRun(20_000, func() {
		if !m.Step() {
			t.Fatal("program ended during measurement")
		}
	})
	if avg != 0 {
		t.Fatalf("breakpoint step with sleepers allocates %.2f allocs/op, want 0", avg)
	}
}
