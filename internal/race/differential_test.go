package race

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/sched"
)

// genProgram emits a random OIR program: a handful of globals, workers
// doing random sequences of loads/stores (some under a mutex), and a main
// that spawns the workers, does its own accesses, and joins. The shapes
// exercise every detector transition: write-write and read-write races,
// lock-ordered accesses, exclusive reads, read-shared promotion (several
// threads reading one global), and pruning writes.
func genProgram(r *rand.Rand) string {
	nWorkers := 1 + r.Intn(3)
	nGlobals := 1 + r.Intn(3)

	var b strings.Builder
	for g := 0; g < nGlobals; g++ {
		fmt.Fprintf(&b, "global @g%d = 0\n", g)
	}
	b.WriteString("global @mu = 0\n\n")

	body := func(tag string, n int) string {
		var w strings.Builder
		reg := 0
		locked := false
		for i := 0; i < n; i++ {
			g := r.Intn(nGlobals)
			switch r.Intn(5) {
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
				fmt.Fprintf(&w, "  call @yield()\n")
			}
		}
		if locked {
			w.WriteString("  call @mutex_unlock(@mu)\n")
		}
		return w.String()
	}

	for wi := 0; wi < nWorkers; wi++ {
		fmt.Fprintf(&b, "func @worker%d() {\nentry:\n%s  ret 0\n}\n", wi, body(fmt.Sprintf("w%d_", wi), 3+r.Intn(6)))
	}
	b.WriteString("func @main() {\nentry:\n")
	for wi := 0; wi < nWorkers; wi++ {
		fmt.Fprintf(&b, "  %%t%d = call @spawn(@worker%d)\n", wi, wi)
	}
	b.WriteString(body("m", 3+r.Intn(6)))
	for wi := 0; wi < nWorkers; wi++ {
		fmt.Fprintf(&b, "  %%j%d = call @join(%%t%d)\n", wi, wi)
	}
	b.WriteString("  ret 0\n}\n")
	return b.String()
}

// reportSet renders reports order-independently: the pre-epoch detector's
// map-iterated read set could surface multiple new pairs from one write
// in any order, so only the set (IDs with counts, address names, and full
// rendered reports including stacks and values) is the contract.
func reportSet(reports []*Report) []string {
	out := make([]string, 0, len(reports))
	for _, r := range reports {
		out = append(out, fmt.Sprintf("%s x%d @%s\n%s", r.ID(), r.Count, r.AddrName, r.String()))
	}
	sort.Strings(out)
	return out
}

// TestDifferentialEpochVsReference attaches the epoch detector and the
// reference full-vector-clock detector to the same machine run — both see
// the identical event stream — across randomized programs and seeded
// random schedules, and requires identical report sets.
func TestDifferentialEpochVsReference(t *testing.T) {
	for progSeed := int64(1); progSeed <= 25; progSeed++ {
		src := genProgram(rand.New(rand.NewSource(progSeed)))
		mod, err := ir.Parse("diff_test.oir", src)
		if err != nil {
			t.Fatalf("prog %d: generated program does not parse: %v\n%s", progSeed, err, src)
		}
		for schedSeed := uint64(1); schedSeed <= 4; schedSeed++ {
			d := NewDetector()
			ref := NewReferenceDetector()
			m, err := interp.New(interp.Config{
				Module: mod, Sched: sched.NewRandom(schedSeed),
				Observers: []interp.Observer{d, ref},
			})
			if err != nil {
				t.Fatalf("prog %d: new machine: %v", progSeed, err)
			}
			m.Run()
			got, want := reportSet(d.Reports()), reportSet(ref.Reports())
			if len(got) != len(want) {
				t.Fatalf("prog %d sched %d: epoch detector found %d reports, reference %d\nprogram:\n%s\nepoch: %v\nreference: %v",
					progSeed, schedSeed, len(got), len(want), src, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("prog %d sched %d: report %d differs\nepoch:\n%s\nreference:\n%s\nprogram:\n%s",
						progSeed, schedSeed, i, got[i], want[i], src)
				}
			}
		}
	}
}

// TestDifferentialWithAnnotations re-runs the differential check with
// pair suppressions active: every other racing pair an unannotated run
// reports is annotated, and on the same schedule both detectors must
// then report exactly the unannotated run's pairs minus those.
func TestDifferentialWithAnnotations(t *testing.T) {
	suppressed := 0
	for progSeed := int64(1); progSeed <= 10; progSeed++ {
		src := genProgram(rand.New(rand.NewSource(progSeed)))
		mod, err := ir.Parse("diff_test.oir", src)
		if err != nil {
			t.Fatalf("prog %d: parse: %v", progSeed, err)
		}
		run := func(ann *Annotations) (*Detector, *ReferenceDetector) {
			d := NewDetector()
			d.Benign = ann
			ref := NewReferenceDetector()
			ref.Benign = ann
			m, err := interp.New(interp.Config{
				Module: mod, Sched: sched.NewRandom(3),
				Observers: []interp.Observer{d, ref},
			})
			if err != nil {
				t.Fatalf("prog %d: new machine: %v", progSeed, err)
			}
			m.Run()
			return d, ref
		}
		raw, _ := run(nil)
		ann := NewAnnotations()
		var kept []*Report
		for i, r := range raw.Reports() {
			if i%2 == 0 {
				ann.AddPair(r.Prev.Instr, r.Cur.Instr)
				suppressed++
			} else {
				kept = append(kept, r)
			}
		}
		d, ref := run(ann)
		got, want := reportSet(d.Reports()), reportSet(ref.Reports())
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("prog %d: annotated runs diverge\nepoch: %v\nreference: %v\nprogram:\n%s",
				progSeed, got, want, src)
		}
		if fmt.Sprint(got) != fmt.Sprint(reportSet(kept)) {
			t.Fatalf("prog %d: annotated run %v, want the unannotated run's unsuppressed pairs %v",
				progSeed, got, reportSet(kept))
		}
	}
	if suppressed == 0 {
		t.Fatal("no generated program raced: nothing was annotated")
	}
}

// stepLoop builds a machine executing a long single-threaded loop that
// re-reads and re-writes one global, with the given observers attached.
func stepLoop(t testing.TB, observers ...interp.Observer) *interp.Machine {
	t.Helper()
	return stepLoopEngine(t, interp.EngineTree, observers...)
}

// stepLoopEngine is stepLoop parameterized over the execution engine,
// so the allocation pins apply to the compiled engine too.
func stepLoopEngine(t testing.TB, engine interp.Engine, observers ...interp.Observer) *interp.Machine {
	t.Helper()
	const src = `
global @x = 0

func @main() {
entry:
  jmp loop
loop:
  %i = phi [entry: 0], [loop: %i2]
  %v = load @x
  %w = load @x
  store %v, @x
  store %w, @x
  %i2 = add %i, 1
  %c = icmp lt %i2, 2000000
  br %c, loop, done
done:
  ret 0
}
`
	mod, err := ir.Parse("alloc_test.oir", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m, err := interp.New(interp.Config{
		Module: mod, Sched: sched.NewRoundRobin(1),
		MaxSteps: 100_000_000, Observers: observers,
		Engine: engine,
	})
	if err != nil {
		t.Fatalf("new machine: %v", err)
	}
	return m
}

// TestNoObserverStepIsAllocationFree pins the interpreter's per-step
// heap cost at zero when nobody observes: the event hot path must not
// build stacks, events, or scratch slices. (The schedule trace append is
// amortized O(1) over the warmed capacity.)
func TestNoObserverStepIsAllocationFree(t *testing.T) {
	m := stepLoop(t)
	for i := 0; i < 50_000; i++ { // warm trace capacity, regs, scratch
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
		t.Fatalf("no-observer step allocates %.2f allocs/op, want 0", avg)
	}
}

// TestSameEpochDetectorStepIsAllocationFree pins the detector-attached
// per-step heap cost at zero on the same-epoch fast path: a single
// thread re-accessing one address keeps the shadow word in epoch mode,
// so neither vector-clock work nor stack capture may allocate.
func TestSameEpochDetectorStepIsAllocationFree(t *testing.T) {
	d := NewDetector()
	m := stepLoop(t, d)
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
		t.Fatalf("same-epoch detector step allocates %.2f allocs/op, want 0", avg)
	}
	st := d.Stats()
	if st.FastpathHits == 0 {
		t.Fatal("loop did not exercise the same-epoch fast path")
	}
	if st.EpochPromotions != 0 {
		t.Fatalf("single-threaded loop promoted %d slots to read-shared", st.EpochPromotions)
	}
	if st.StackCaptures != 0 {
		t.Fatalf("race-free run materialized %d stacks", st.StackCaptures)
	}
	if len(d.Reports()) != 0 {
		t.Fatalf("race-free run produced %d reports", len(d.Reports()))
	}
}
