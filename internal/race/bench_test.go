package race

import (
	"testing"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/sched"
	"github.com/conanalysis/owl/internal/workloads"
)

const benchSrc = `
global @a = 0
global @b = 0
global @m = 0

func @worker() {
entry:
  jmp head
head:
  %i = phi [entry: 0], [body: %i2]
  %c = icmp lt %i, 300
  br %c, body, done
body:
  %v = load @a
  %v2 = add %v, 1
  store %v2, @a
  call @mutex_lock(@m)
  %w = load @b
  %w2 = add %w, 1
  store %w2, @b
  call @mutex_unlock(@m)
  %i2 = add %i, 1
  jmp head
done:
  ret 0
}
func @main() {
entry:
  %t1 = call @spawn(@worker)
  %t2 = call @spawn(@worker)
  %r1 = call @join(%t1)
  %r2 = call @join(%t2)
  ret 0
}
`

// benchRun executes one full benchSrc run with the given observer
// attached, asserting races were found when a detector is present.
func benchRun(b *testing.B, mod *ir.Module, obs ...interp.Observer) {
	b.Helper()
	benchRunEngine(b, mod, interp.EngineTree, obs...)
}

// benchRunEngine is benchRun parameterized over the execution engine.
func benchRunEngine(b *testing.B, mod *ir.Module, engine interp.Engine, obs ...interp.Observer) {
	b.Helper()
	m, err := interp.New(interp.Config{
		Module: mod, Sched: sched.NewRoundRobin(1),
		Observers: obs, MaxSteps: 100000, Engine: engine,
	})
	if err != nil {
		b.Fatal(err)
	}
	m.Run()
}

// BenchmarkDetectorOverhead measures a full run with the epoch-based
// happens-before detector attached (mixed racy and lock-protected
// traffic): FastTrack shadow words, lazy stack capture.
func BenchmarkDetectorOverhead(b *testing.B) {
	mod := ir.MustParse("bench.oir", benchSrc)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := NewDetector()
		benchRun(b, mod, d)
		if len(d.Reports()) == 0 {
			b.Fatal("expected races")
		}
	}
}

// BenchmarkDetectorFullVC is the ablation arm for the epoch shadow
// memory: the reference detector keeps full per-address vector-clock
// read maps and materializes a call stack on every access (the pre-epoch
// implementation, byte-identical reports).
func BenchmarkDetectorFullVC(b *testing.B) {
	mod := ir.MustParse("bench.oir", benchSrc)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := NewReferenceDetector()
		benchRun(b, mod, d)
		if len(d.Reports()) == 0 {
			b.Fatal("expected races")
		}
	}
}

// eagerStackObserver forces eager stack materialization on every access
// while delegating detection to the epoch detector. It deliberately does
// not implement interp.StackPolicy, so the machine also captures stack
// refs for every event kind — together the pre-PR emit-site behavior.
type eagerStackObserver struct{ d *Detector }

func (o eagerStackObserver) OnEvent(m *interp.Machine, e *interp.Event) {
	if e.Kind == interp.EvRead || e.Kind == interp.EvWrite {
		_ = e.StackRef().Materialize()
	}
	o.d.OnEvent(m, e)
}

// BenchmarkDetectorEagerStacks is the ablation arm for lazy stack
// capture: epoch shadow memory, but a stack is materialized for every
// access event instead of only for reported races.
func BenchmarkDetectorEagerStacks(b *testing.B) {
	mod := ir.MustParse("bench.oir", benchSrc)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := NewDetector()
		benchRun(b, mod, eagerStackObserver{d})
		if len(d.Reports()) == 0 {
			b.Fatal("expected races")
		}
	}
}

// BenchmarkBaselineNoDetector is the same run without the detector, for
// overhead comparison.
func BenchmarkBaselineNoDetector(b *testing.B) {
	mod := ir.MustParse("bench.oir", benchSrc)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchRun(b, mod)
	}
}

// BenchmarkBaselineNoDetectorBytecode is the compiled-engine arm of the
// baseline: same program, same schedule, flat bytecode run by RunLoop
// with no observer attached. (The one-time
// module lowering is memoized, so it amortizes to zero across
// iterations — exactly how owl's explorers reuse a module.)
func BenchmarkBaselineNoDetectorBytecode(b *testing.B) {
	mod := ir.MustParse("bench.oir", benchSrc)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchRunEngine(b, mod, interp.EngineBytecode)
	}
}

// BenchmarkDetectorOverheadBytecode measures the epoch detector on the
// compiled engine: the observer costs an interface call per event, and
// the slot-file and dispatch wins stay.
func BenchmarkDetectorOverheadBytecode(b *testing.B) {
	mod := ir.MustParse("bench.oir", benchSrc)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := NewDetector()
		benchRunEngine(b, mod, interp.EngineBytecode, d)
		if len(d.Reports()) == 0 {
			b.Fatal("expected races")
		}
	}
}

// BenchmarkVerifyStepFullNoise is the step rung the verifiers run on:
// one Step with a never-suspending breakpoint attached (so RunLoop would
// hold no windows either) and nothing watched, which is every step
// between two watched instructions, on full-noise apache with its ~40
// threads, sleepers and all. An op is one step; a finished run is
// rebuilt off the clock.
func BenchmarkVerifyStepFullNoise(b *testing.B) {
	w := workloads.Get("apache", workloads.NoiseFull)
	rec := w.Recipe(w.Attacks[0].InputRecipe)
	probe := func(*interp.Machine, *interp.Thread, *ir.Instr) interp.BPAction { return interp.BPContinue }
	newMachine := func() *interp.Machine {
		m, err := interp.New(interp.Config{
			Module: w.Module, Entry: w.Entry, Inputs: rec.Inputs, MaxSteps: w.MaxSteps,
			Sched: sched.NewRandom(1), Breakpoint: probe,
		})
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	m := newMachine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !m.Step() {
			b.StopTimer()
			m = newMachine()
			b.StartTimer()
		}
	}
}
