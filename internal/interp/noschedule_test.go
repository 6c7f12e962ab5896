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

// noScheduleRun is one way of driving a workload model to the end; mid
// is a step in the middle of the run.
type noScheduleRun func(t *testing.T, cfg interp.Config, noSchedule bool, mid int) *interp.Machine

// noScheduleRuns drive a machine cold, across a mid-run Snapshot/Restore
// (the restore taking the same NoSchedule setting as the snapshot, or
// the other one), and by hand under suspending breakpoints.
var noScheduleRuns = map[string]noScheduleRun{
	"cold": func(t *testing.T, cfg interp.Config, noSchedule bool, _ int) *interp.Machine {
		cfg.NoSchedule = noSchedule
		m := newMachine(t, cfg)
		m.Run()
		return m
	},
	"restore": func(t *testing.T, cfg interp.Config, noSchedule bool, mid int) *interp.Machine {
		return restoredRun(t, cfg, mid, noSchedule, noSchedule)
	},
	"restore-flipped": func(t *testing.T, cfg interp.Config, noSchedule bool, mid int) *interp.Machine {
		return restoredRun(t, cfg, mid, noSchedule, !noSchedule)
	},
	"breakpoint": func(t *testing.T, cfg interp.Config, noSchedule bool, _ int) *interp.Machine {
		h := &holdingBreakpoint{}
		cfg.NoSchedule, cfg.Breakpoint = noSchedule, h.bp
		m := newMachine(t, cfg)
		h.drive(m)
		return m
	},
}

// restoredRun steps a machine (NoSchedule = snapNoSchedule) k times,
// snapshots it, and runs a restore of the snapshot (NoSchedule =
// restoreNoSchedule) to the end with the same scheduler and observers.
func restoredRun(t *testing.T, cfg interp.Config, k int, snapNoSchedule, restoreNoSchedule bool) *interp.Machine {
	cfg.NoSchedule = snapNoSchedule
	m := newMachine(t, cfg)
	for i := 0; i < k; i++ {
		if !m.Step() {
			t.Fatalf("run ended at step %d of %d", i, k)
		}
	}
	r, err := interp.Restore(m.Snapshot(), interp.Config{
		Sched: cfg.Sched, Observers: cfg.Observers, NoSchedule: restoreNoSchedule,
	})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	r.Run()
	return r
}

func newMachine(t *testing.T, cfg interp.Config) *interp.Machine {
	t.Helper()
	m, err := interp.New(cfg)
	if err != nil {
		t.Fatalf("new machine: %v", err)
	}
	return m
}

// TestNoScheduleDifferential: a machine that records no schedule runs
// exactly like one that does. For every workload model at light and
// full noise, driven cold, across Snapshot/Restore and under suspending
// breakpoints, its Result equals the traced machine's in every field but
// Schedule, and a race detector attached to each reports the same races.
// The untraced machine reports no schedule at all, and neither does a
// machine restored from its snapshots.
func TestNoScheduleDifferential(t *testing.T) {
	for _, name := range workloads.Names() {
		for _, lvl := range []workloads.NoiseLevel{workloads.NoiseLight, workloads.NoiseFull} {
			w := workloads.Get(name, lvl)
			cfg := func() interp.Config {
				return interp.Config{
					Module: w.Module, Entry: w.Entry, Inputs: w.Recipes[0].Inputs, MaxSteps: w.MaxSteps,
					Sched: sched.NewRandom(7),
				}
			}
			mid := newMachine(t, cfg()).Run().Steps / 2
			for mode, run := range noScheduleRuns {
				tag := fmt.Sprintf("%s noise=%d %s", name, lvl, mode)
				var results [2]*interp.Result
				var reports [2][]*race.Report
				for i, noSchedule := range []bool{false, true} {
					d := race.NewDetector()
					c := cfg()
					c.Observers = []interp.Observer{d}
					m := run(t, c, noSchedule, mid)
					results[i], reports[i] = m.Result(), d.Reports()
					_, last := m.LastScheduled()
					traced := mode != "restore-flipped" && !noSchedule
					if got := len(results[i].Schedule) > 0; got != traced {
						t.Fatalf("%s NoSchedule=%v: Result().Schedule has %d entries", tag, noSchedule, len(results[i].Schedule))
					}
					if got := m.Schedule() != nil || last; got != traced {
						t.Fatalf("%s NoSchedule=%v: Schedule() has %d entries, LastScheduled ok=%v",
							tag, noSchedule, len(m.Schedule()), last)
					}
				}
				results[0].Schedule, results[1].Schedule = nil, nil
				if !reflect.DeepEqual(results[0], results[1]) {
					t.Fatalf("%s: results differ\ntraced:   %+v\nuntraced: %+v", tag, results[0], results[1])
				}
				if !reflect.DeepEqual(reports[0], reports[1]) {
					t.Fatalf("%s: race reports differ (%d traced, %d untraced)", tag, len(reports[0]), len(reports[1]))
				}
			}
		}
	}
}
