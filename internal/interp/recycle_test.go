package interp_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/sched"
	"github.com/conanalysis/owl/internal/workloads"
)

// recycledRun is what a resumed run leaves behind: its Result, the
// breakpoint calls it took, its arena fingerprint and thread count.
type recycledRun struct {
	res      *interp.Result
	calls    int
	arena    uint64
	nthreads int
}

// runFrom restores snap into into (nil: a fresh machine) under a
// Random scheduler of the given seed, with a counting breakpoint that
// watches the stores (or every instruction), and runs it to the end.
func runFrom(t *testing.T, into *interp.Machine, snap *interp.Snapshot, seed uint64, watchAll bool) (*interp.Machine, recycledRun) {
	var out recycledRun
	bp := func(*interp.Machine, *interp.Thread, *ir.Instr) interp.BPAction {
		out.calls++
		return interp.BPContinue
	}
	m, err := interp.RestoreInto(into, snap, interp.Config{Sched: sched.NewRandom(seed), Breakpoint: bp})
	if err != nil {
		t.Error(err)
		return nil, out
	}
	for _, f := range m.Mod().Funcs {
		for _, in := range f.Instrs() {
			if watchAll || in.Op == ir.OpStore {
				m.Watch(in)
			}
		}
	}
	out.res = m.Run()
	out.arena = m.Mem().Fingerprint()
	out.nthreads = len(m.Threads())
	return m, out
}

// TestSnapshotRecycledRestoreAliasing pins RestoreInto against Restore:
// a snapshot restored into a machine that last ran another attempt
// (another snapshot, another schedule, another watched set) must run
// exactly as a fresh restore of it — the same Result (schedule, output,
// faults and all), breakpoint calls and arena contents. The full-noise
// models run it at three workers, each recycling its own machine while
// all resume the same two snapshots, the first taken before the
// model's threads are all spawned.
func TestSnapshotRecycledRestoreAliasing(t *testing.T) {
	for _, name := range workloads.Names() {
		w := workloads.Get(name, workloads.NoiseFull)
		rec := w.Recipes[0]
		m, err := interp.New(interp.Config{Module: w.Module, Entry: w.Entry, Inputs: rec.Inputs,
			MaxSteps: w.MaxSteps, Sched: sched.NewRandom(7)})
		if err != nil {
			t.Fatal(err)
		}
		for m.StepCount() < 40 && m.Step() {
		}
		early, spawned := m.Snapshot(), len(m.Threads())
		for m.StepCount() < 2000 && m.Step() {
		}
		late := m.Snapshot()

		want := map[uint64]recycledRun{}
		for seed := uint64(1); seed <= 3; seed++ {
			_, want[seed] = runFrom(t, nil, early, seed, false)
		}
		if want[1].nthreads <= spawned {
			t.Fatalf("%s: no thread spawned after the snapshot (%d threads at it, %d at the end)", name, spawned, want[1].nthreads)
		}
		var wg sync.WaitGroup
		for worker := 0; worker < 3; worker++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var mach *interp.Machine
				for seed := uint64(1); seed <= 3; seed++ {
					mach, _ = runFrom(t, mach, late, seed+uint64(worker)+10, true)
					var got recycledRun
					mach, got = runFrom(t, mach, early, seed, false)
					if !reflect.DeepEqual(got, want[seed]) {
						t.Errorf("%s worker %d seed %d: recycled restore differs from a fresh one:\n got %s\nwant %s",
							name, worker, seed, describe(got), describe(want[seed]))
					}
				}
			}()
		}
		wg.Wait()
	}
}

func describe(r recycledRun) string {
	if r.res == nil {
		return "<no run>"
	}
	return fmt.Sprintf("steps=%d stall=%v exit=%d uid=%d faults=%d output=%d schedule=%d calls=%d arena=%x threads=%d",
		r.res.Steps, r.res.Stall, r.res.ExitCode, r.res.UID, len(r.res.Faults), len(r.res.Output),
		len(r.res.Schedule), r.calls, r.arena, r.nthreads)
}
