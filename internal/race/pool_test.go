package race

import (
	"reflect"
	"sync"
	"testing"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/sched"
	"github.com/conanalysis/owl/internal/workloads"
)

// runWorkload runs w's first recipe under d with a seeded random
// schedule.
func runWorkload(t *testing.T, w *workloads.Workload, d *Detector) {
	m, err := interp.New(interp.Config{
		Module: w.Module, Entry: w.Entry, Inputs: w.Recipes[0].Inputs, MaxSteps: w.MaxSteps,
		Sched: sched.NewRandom(5), Observers: []interp.Observer{d},
	})
	if err != nil {
		t.Errorf("%s: new machine: %v", w.Name, err)
		return
	}
	m.Run()
}

func reportIDs(reports []*Report) []string {
	ids := make([]string, len(reports))
	for i, r := range reports {
		ids[i] = r.ID()
	}
	return ids
}

// TestPooledTableDifferential: a detector whose shadow table comes from
// the pool, left dirty by a run of a different program, reports exactly
// what a detector with a table of its own reports. Every workload model
// runs right after its predecessor in the registry, whose released
// table it then takes, at workers 1 and 3; with 3 workers, runs take
// and release tables concurrently.
func TestPooledTableDifferential(t *testing.T) {
	var ws []*workloads.Workload
	for _, n := range workloads.Names() {
		ws = append(ws, workloads.Get(n, workloads.NoiseLight))
	}
	want := make([][]*Report, len(ws))
	for i, w := range ws {
		d := NewDetector()
		d.slots = make([]shadowSlot, 0, 1024) // its own table: never pooled
		runWorkload(t, w, d)
		want[i] = d.Reports()
	}
	for _, workers := range []int{1, 3} {
		var mu sync.Mutex
		released := map[*shadowSlot]bool{} // base of every table a run handed back
		reused := 0
		var wg sync.WaitGroup
		next := make(chan int)
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					prev := NewDetector()
					runWorkload(t, ws[(i+len(ws)-1)%len(ws)], prev)
					mu.Lock()
					released[&prev.slots[:1][0]] = true
					mu.Unlock()
					prev.Release()

					d := NewDetector()
					runWorkload(t, ws[i], d)
					mu.Lock()
					if released[&d.slots[:1][0]] {
						reused++
					}
					mu.Unlock()
					if got := d.Reports(); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("workers=%d %s: pooled table gives %d reports %v, own table %d %v",
							workers, ws[i].Name, len(got), reportIDs(got), len(want[i]), reportIDs(want[i]))
					}
					d.Release()
				}
			}()
		}
		for i := range ws {
			next <- i
		}
		close(next)
		wg.Wait()
		if reused == 0 {
			t.Fatalf("workers=%d: no run took a table another run released; the test compared nothing", workers)
		}
		t.Logf("workers=%d: %d of %d runs took a released table", workers, reused, len(ws))
	}
}
