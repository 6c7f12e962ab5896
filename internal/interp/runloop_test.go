package interp_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/race"
	"github.com/conanalysis/owl/internal/sched"
	"github.com/conanalysis/owl/internal/workloads"
)

// stepOnly hides a scheduler's Hold and Skip, so nothing can run held
// windows with it.
type stepOnly struct{ inner interp.Scheduler }

func (s stepOnly) Next(runnable []interp.ThreadID, step int) interp.ThreadID {
	return s.inner.Next(runnable, step)
}

// runOut is what a run produced: its Result, the reports and counters
// of an attached race detector, the switch pairs of an attached
// coverage recorder, and the steps RunLoop fast-forwarded.
type runOut struct {
	res     *interp.Result
	reports []*race.Report
	stats   race.Stats
	cov     *sched.RunCoverage
	skipped int
}

// observed attaches, when observe is set, a race detector and a
// coverage recorder to cfg, the observers a detect run has; the
// returned detector is fresh either way.
func observed(cfg *interp.Config, observe bool) (*race.Detector, *sched.RunCoverage) {
	d := race.NewDetector()
	if !observe {
		return d, nil
	}
	cov := sched.NewCoverage().NewRun()
	cfg.Observers = []interp.Observer{d}
	cfg.SwitchObservers = []interp.SwitchObserver{cov}
	return d, cov
}

// stepRun runs cfg under s by Step alone, the reference every RunLoop
// path must match.
func stepRun(t *testing.T, cfg interp.Config, s interp.Scheduler, observe bool) runOut {
	t.Helper()
	cfg.Sched = stepOnly{s}
	d, cov := observed(&cfg, observe)
	m := newMachine(t, cfg)
	for m.Step() {
	}
	return runOut{res: m.Result(), reports: d.Reports(), stats: d.Stats(), cov: cov}
}

// loopRun runs cfg under s by RunLoop.
func loopRun(t *testing.T, cfg interp.Config, s interp.Scheduler, observe bool) runOut {
	t.Helper()
	cfg.Sched = s
	d, cov := observed(&cfg, observe)
	m := newMachine(t, cfg)
	if m.Engine() != interp.EngineBytecode {
		t.Fatalf("machine runs %s, want the compiled engine", m.Engine())
	}
	m.RunLoop()
	return runOut{res: m.Result(), reports: d.Reports(), stats: d.Stats(), cov: cov, skipped: m.SkippedSteps()}
}

// sameRun fails unless got, a RunLoop run, matches want, its Step
// reference: the whole Result (schedule, steps, faults, output, exit
// code, MaxStepsHit), the report stream with every Count and
// Access.Step, the detector's counters and the coverage pair set.
func sameRun(t *testing.T, tag string, got, want runOut) {
	t.Helper()
	if !reflect.DeepEqual(got.res, want.res) {
		t.Fatalf("%s: results differ\nRunLoop: %+v\nStep:    %+v", tag, got.res, want.res)
	}
	if (len(got.reports) > 0 || len(want.reports) > 0) && !reflect.DeepEqual(got.reports, want.reports) {
		t.Fatalf("%s: race reports differ (%d by RunLoop, %d by Step)", tag, len(got.reports), len(want.reports))
	}
	if got.stats != want.stats {
		t.Fatalf("%s: detector counters differ\nRunLoop: %+v\nStep:    %+v", tag, got.stats, want.stats)
	}
	if got.cov != nil && !samePairs(got.cov, want.cov) {
		t.Fatalf("%s: coverage pairs differ (%d by RunLoop, %d by Step)", tag, got.cov.Len(), want.cov.Len())
	}
}

// samePairs reports whether two runs observed the same switch pairs:
// as many, and none of b's new once a's are merged.
func samePairs(a, b *sched.RunCoverage) bool {
	c := sched.NewCoverage()
	c.Merge(a)
	return a.Len() == b.Len() && c.Merge(b) == 0
}

// compareRunLoop runs cfg once by RunLoop and once by Step, each under
// a fresh scheduler from mk, and returns the RunLoop run.
func compareRunLoop(t *testing.T, tag string, cfg interp.Config, mk func() interp.Scheduler, observe bool) runOut {
	t.Helper()
	got := loopRun(t, cfg, mk(), observe)
	sameRun(t, tag, got, stepRun(t, cfg, mk(), observe))
	return got
}

// TestRunLoopMatchesStep checks RunLoop's held windows against plain
// Step. For every corpus model and recipe at both noise levels, under
// seeds 1-4 and PCT both over a Random run's length and over the
// program's whole step bound, as the coverage engine configures it, a
// compiled machine run by RunLoop must give the same Result as the same
// machine driven by `for m.Step() {}` with the scheduler's Hold hidden,
// and race detectors attached to each must report the same races in the
// same order with the same counters, and coverage recorders attached to
// each must observe the same switch pairs. The runs are repeated
// without observers, where windows skip loading instructions. Then the
// coverage engine's own PCT and DFS jobs, the latter with their bounded
// decision schedulers behind the snapshot cache, must match their Step
// references too. The gated noise workers of light-noise apache, chrome
// and mysql poll in turn above a starved thread, so PCT's runs there
// must fast-forward whole-machine cycles. Schedulers that hold nothing
// (Random, round-robin) run every RunLoop step through Step itself, so
// they are not compared.
func TestRunLoopMatchesStep(t *testing.T) {
	scheds := []struct {
		name string
		// horizon is a run's length under the seed, over which PCT
		// scatters its priority changes.
		mk func(seed uint64, horizon, maxSteps int) interp.Scheduler
	}{
		{"pct", func(seed uint64, horizon, _ int) interp.Scheduler { return sched.NewPCT(seed, 3, horizon) }},
		{"pct-maxsteps", func(seed uint64, _, maxSteps int) interp.Scheduler { return sched.NewPCT(seed, 3, maxSteps) }},
	}
	skipped := map[string]int{}
	pctLight := map[string]int{} // PCT's skipped steps by light-noise model
	for _, name := range workloads.Names() {
		for _, lvl := range []workloads.NoiseLevel{workloads.NoiseLight, workloads.NoiseFull} {
			w := workloads.Get(name, lvl)
			for _, rec := range w.Recipes {
				cfg := interp.Config{Module: w.Module, Entry: w.Entry, Inputs: rec.Inputs, MaxSteps: w.MaxSteps}
				for seed := uint64(1); seed <= 4; seed++ {
					horizon := stepRun(t, cfg, sched.NewRandom(seed), false).res.Steps
					for _, s := range scheds {
						for _, observe := range []bool{true, false} {
							tag := fmt.Sprintf("%s noise=%d recipe=%s seed=%d sched=%s observe=%v",
								name, lvl, rec.Name, seed, s.name, observe)
							got := compareRunLoop(t, tag, cfg, func() interp.Scheduler { return s.mk(seed, horizon, w.MaxSteps) }, observe)
							skipped[s.name] += got.skipped
							if lvl == workloads.NoiseLight {
								pctLight[name] += got.skipped
							}
						}
					}
				}
			}
			compareEngineJobs(t, name, lvl, w, skipped)
		}
	}
	// The comparison must have reached held spins under the
	// production configurations.
	for _, arm := range []string{"pct-maxsteps", "engine-pct", "engine-dfs"} {
		if skipped[arm] == 0 {
			t.Errorf("%s: no run fast-forwarded a step", arm)
		}
	}
	for _, name := range []string{"apache", "chrome", "mysql"} {
		if pctLight[name] == 0 {
			t.Errorf("light-noise %s: no PCT run fast-forwarded a step", name)
		}
	}
}

// compareEngineJobs runs a coverage exploration of w's first recipe as
// the detect stage configures it and checks every PCT and DFS job
// against its Step reference: PCT jobs under a fresh copy of their
// scheduler, DFS jobs under a copy of their bounded decision scheduler
// taken before the job runs behind the snapshot cache (so many resume
// from a cached prefix). Random jobs run, so the exploration goes as in
// the detect stage, but hold nothing and are not compared. It adds the
// steps the jobs fast-forwarded to skipped, by strategy.
func compareEngineJobs(t *testing.T, name string, lvl workloads.NoiseLevel, w *workloads.Workload, skipped map[string]int) {
	t.Helper()
	const pctDepth = 3 // the engine's default
	cfg := interp.Config{Module: w.Module, Entry: w.Entry, Inputs: w.Recipes[0].Inputs, MaxSteps: w.MaxSteps}
	eng := sched.NewEngine(sched.EngineConfig{Budget: 18, Seed: 1, PCTSteps: w.MaxSteps, Snap: sched.NewSnapCache(64)})
	dfs := 0
	_, err := eng.ExploreCtx(context.Background(), func(jobs []*sched.Job) error {
		for i, j := range jobs {
			var ref interp.Scheduler
			switch s := j.Sched.(type) {
			case *sched.Random:
			case *sched.PCT:
				ref = sched.NewPCT(j.Seed, pctDepth, w.MaxSteps)
			case *sched.DecisionSched:
				c := *s
				ref = &c
				dfs++
			default:
				t.Fatalf("unexpected scheduler %T", j.Sched)
			}
			c := cfg
			d := race.NewDetector()
			c.Observers = []interp.Observer{d}
			c.SwitchObservers = []interp.SwitchObserver{j.Cov}
			c.Sched = j.Sched
			m, err := j.Run(c)
			if err != nil {
				t.Fatalf("%s noise=%d job %d: %v", name, lvl, i, err)
			}
			if ref == nil {
				continue
			}
			got := runOut{res: m.Result(), reports: d.Reports(), stats: d.Stats(), cov: j.Cov, skipped: m.SkippedSteps()}
			tag := fmt.Sprintf("%s noise=%d engine job %d (%s seed=%d)", name, lvl, i, j.Strategy, j.Seed)
			sameRun(t, tag, got, stepRun(t, cfg, ref, true))
			skipped["engine-"+j.Strategy.String()] += got.skipped
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if dfs == 0 {
		t.Fatalf("%s noise=%d: the exploration ran no DFS job", name, lvl)
	}
}

// noSpin hides an observer's optional methods, as an observer that does
// not implement interp.SpinObserver (the atomicity detector, the
// predict recorder) would.
type noSpin struct{ interp.Observer }

// TestHeldWindowWithoutSkip: a machine whose observer cannot
// fast-forward still runs PCT's holds as windows, every thread the holds
// pick, and must match Step with no step skipped.
func TestHeldWindowWithoutSkip(t *testing.T) {
	for _, name := range []string{"apache", "chrome", "mysql"} {
		w := workloads.Get(name, workloads.NoiseLight)
		cfg := interp.Config{Module: w.Module, Entry: w.Entry, Inputs: w.Recipes[0].Inputs, MaxSteps: w.MaxSteps}
		for seed := uint64(1); seed <= 4; seed++ {
			run := func(s interp.Scheduler) runOut {
				c := cfg
				d := race.NewDetector()
				c.Observers = []interp.Observer{noSpin{d}}
				c.Sched = s
				m := newMachine(t, c)
				if _, ok := s.(stepOnly); ok {
					for m.Step() {
					}
				} else {
					m.RunLoop()
				}
				return runOut{res: m.Result(), reports: d.Reports(), stats: d.Stats(), skipped: m.SkippedSteps()}
			}
			tag := fmt.Sprintf("%s seed=%d", name, seed)
			got := run(sched.NewPCT(seed, 3, w.MaxSteps))
			sameRun(t, tag, got, run(stepOnly{sched.NewPCT(seed, 3, w.MaxSteps)}))
			if got.skipped != 0 {
				t.Fatalf("%s: fast-forwarded %d steps under an observer that cannot skip", tag, got.skipped)
			}
		}
	}
}
