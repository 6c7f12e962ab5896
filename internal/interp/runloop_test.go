package interp_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/race"
	"github.com/conanalysis/owl/internal/sched"
	"github.com/conanalysis/owl/internal/workloads"
)

// stepOnly hides a scheduler's Plan, so nothing can run planned windows
// with it.
type stepOnly struct{ inner interp.Scheduler }

func (s stepOnly) Next(runnable []interp.ThreadID, step int) interp.ThreadID {
	return s.inner.Next(runnable, step)
}

// TestRunLoopMatchesStep checks RunLoop's one fork, planned windows,
// against plain Step. For every corpus model and recipe at both noise
// levels, under seeds 1-4 and each planning scheduler, a compiled
// machine run by RunLoop must give the same Result (schedule, steps,
// faults, output, exit code) as the same machine driven by `for
// m.Step() {}` with the scheduler's Plan hidden, and race detectors
// attached to each must report the same races in the same order. The
// runs are repeated without observers, where windows skip loading
// instructions.
func TestRunLoopMatchesStep(t *testing.T) {
	scheds := []struct {
		name string
		// horizon is a run's length under the seed, over which PCT
		// scatters its priority changes.
		mk func(seed uint64, horizon int) interp.PlanningScheduler
	}{
		{"random", func(seed uint64, _ int) interp.PlanningScheduler { return sched.NewRandom(seed) }},
		{"pct", func(seed uint64, horizon int) interp.PlanningScheduler { return sched.NewPCT(seed, 3, horizon) }},
		{"round-robin", func(seed uint64, _ int) interp.PlanningScheduler { return sched.NewRoundRobin(int(seed)) }},
	}
	for _, name := range workloads.Names() {
		for _, lvl := range []workloads.NoiseLevel{workloads.NoiseLight, workloads.NoiseFull} {
			w := workloads.Get(name, lvl)
			for _, rec := range w.Recipes {
				cfg := interp.Config{Module: w.Module, Entry: w.Entry, Inputs: rec.Inputs, MaxSteps: w.MaxSteps}
				for seed := uint64(1); seed <= 4; seed++ {
					horizon := 0
					for _, s := range scheds {
						for _, observe := range []bool{true, false} {
							tag := fmt.Sprintf("%s noise=%d recipe=%s seed=%d sched=%s observe=%v",
								name, lvl, rec.Name, seed, s.name, observe)
							steps := compareRunLoop(t, tag, cfg, func() interp.PlanningScheduler { return s.mk(seed, horizon) }, observe)
							if horizon == 0 {
								horizon = steps
							}
						}
					}
				}
			}
		}
	}
}

// compareRunLoop runs cfg once by RunLoop and once by Step, each under
// a fresh scheduler from mk, and returns the run's step count.
func compareRunLoop(t *testing.T, tag string, cfg interp.Config, mk func() interp.PlanningScheduler, observe bool) int {
	t.Helper()
	var results [2]*interp.Result
	var reports [2][]*race.Report
	for i, planned := range []bool{true, false} {
		c := cfg
		c.Sched = mk()
		if !planned {
			c.Sched = stepOnly{c.Sched}
		}
		d := race.NewDetector()
		if observe {
			c.Observers = []interp.Observer{d}
		}
		m := newMachine(t, c)
		if m.Engine() != interp.EngineBytecode {
			t.Fatalf("%s: machine runs %s, want the compiled engine", tag, m.Engine())
		}
		if planned {
			m.RunLoop()
		} else {
			for m.Step() {
			}
		}
		results[i], reports[i] = m.Result(), d.Reports()
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatalf("%s: results differ\nRunLoop: %+v\nStep:    %+v", tag, results[0], results[1])
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Fatalf("%s: race reports differ (%d by RunLoop, %d by Step)", tag, len(reports[0]), len(reports[1]))
	}
	return results[0].Steps
}
