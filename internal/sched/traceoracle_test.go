//go:build !race

package sched

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/race"
	"github.com/conanalysis/owl/internal/workloads"
)

// traceRun is what one exploration exposes of its schedules: the DFS
// decision vectors each round handed out, every job's report IDs, the
// engine's result, and the DFS frontier left pending at the end (which
// fixes every schedule a larger budget would go on to run).
type traceRun struct {
	dfs      [][][]int
	reports  [][]string
	res      *EngineResult
	frontier *ipbFrontier
	// bounded counts DFS jobs that executed more decisions than they
	// recorded — proof the trace bound was in effect.
	bounded int
}

// exploreTraces runs the coverage engine over one workload model with a
// race detector attached, the way the detect stage does, executing each
// round's jobs on the given number of goroutines.
func exploreTraces(t *testing.T, w *workloads.Workload, cache bool, workers int, full bool) traceRun {
	t.Helper()
	var snap *SnapCache
	if cache {
		snap = NewSnapCache(64)
	}
	inputs := w.Recipe(w.DefaultRecipe()).Inputs
	eng := NewEngine(EngineConfig{Budget: 24, Seed: 3, MaxDecisions: 6, PCTSteps: w.MaxSteps, Snap: snap, FullTraces: full})
	var out traceRun
	res, err := eng.Explore(func(jobs []*Job) error {
		var round [][]int
		for _, j := range jobs {
			if ds, ok := j.Sched.(*DecisionSched); ok {
				round = append(round, append([]int(nil), ds.Decisions...))
			}
		}
		out.dfs = append(out.dfs, round)
		errs := make([]error, len(jobs))
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for i, j := range jobs {
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer func() { <-sem; wg.Done() }()
				d := race.NewDetector()
				_, err := j.Run(interp.Config{
					Module: w.Module, Entry: w.Entry, Inputs: inputs, MaxSteps: w.MaxSteps,
					Sched: j.Sched, Observers: []interp.Observer{d},
					SwitchObservers: []interp.SwitchObserver{j.Cov},
				})
				if err != nil {
					errs[i] = err
					return
				}
				for _, r := range d.Reports() {
					j.ReportIDs = append(j.ReportIDs, r.ID())
				}
			}()
		}
		wg.Wait()
		for _, j := range jobs {
			out.reports = append(out.reports, j.ReportIDs)
			if ds, ok := j.Sched.(*DecisionSched); ok && ds.pos > len(ds.Trace) {
				out.bounded++
			}
		}
		return errors.Join(errs...)
	})
	if err != nil {
		t.Fatal(err)
	}
	out.res, out.frontier = res, eng.frontier
	return out
}

// TestDFSTraceBoundOracle checks that bounding DFS jobs' decision traces
// to the depth the frontier and snapshot cache read changes nothing:
// on every workload model, at light and full noise, with the snapshot
// cache on and off and at 1 and 3 workers, every round's DFS decision
// vectors, every job's report IDs, the EngineResult and the pending
// frontier equal those of the full-trace reference. MaxDecisions 6 sits
// below the cache's default depth of 12, so the cache-off arms bound
// traces at the frontier's depth and the cache-on arms at the cache's.
func TestDFSTraceBoundOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("explores every workload model")
	}
	bounded := 0
	for _, name := range workloads.Names() {
		for _, lvl := range []workloads.NoiseLevel{workloads.NoiseLight, workloads.NoiseFull} {
			w := workloads.Get(name, lvl)
			for _, cache := range []bool{false, true} {
				for _, workers := range []int{1, 3} {
					arm := fmt.Sprintf("%s noise=%d cache=%v workers=%d", name, lvl, cache, workers)
					want := exploreTraces(t, w, cache, workers, true)
					got := exploreTraces(t, w, cache, workers, false)
					if want.bounded != 0 {
						t.Fatalf("%s: full-trace reference dropped decisions", arm)
					}
					bounded += got.bounded
					if !reflect.DeepEqual(got.dfs, want.dfs) {
						t.Errorf("%s: DFS decision vectors differ from the full-trace reference", arm)
					}
					if !reflect.DeepEqual(got.reports, want.reports) {
						t.Errorf("%s: report IDs differ from the full-trace reference", arm)
					}
					if !reflect.DeepEqual(got.res, want.res) {
						t.Errorf("%s: EngineResult %+v, full-trace reference %+v", arm, got.res, want.res)
					}
					if !reflect.DeepEqual(got.frontier, want.frontier) {
						t.Errorf("%s: pending DFS frontier differs from the full-trace reference", arm)
					}
				}
			}
		}
	}
	if bounded == 0 {
		t.Fatal("no DFS job ran past its trace bound; the oracle compared nothing")
	}
}
