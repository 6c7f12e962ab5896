package owl

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/race"
	"github.com/conanalysis/owl/internal/sched"
	"github.com/conanalysis/owl/internal/workloads"
)

func coverageProgram(t *testing.T, name string) (Program, *workloads.Workload) {
	t.Helper()
	w := workloads.Get(name, workloads.NoiseLight)
	if w == nil {
		t.Fatalf("unknown workload %q", name)
	}
	rec := w.Recipe(w.Attacks[0].InputRecipe)
	return Program{
		Module: w.Module, Entry: w.Entry, Inputs: rec.Inputs, MaxSteps: w.MaxSteps,
	}, w
}

// countersOf flattens a snapshot's counters (the deterministic part of
// the metrics surface; stage timings legitimately vary).
func countersOf(mc *metrics.Collector) string {
	rep := mc.Snapshot()
	var b strings.Builder
	for _, c := range rep.Counters {
		fmt.Fprintf(&b, "%s=%d\n", c.Name, c.Value)
	}
	for _, g := range rep.Gauges {
		if g.Name == "owl.workers" {
			continue // differs across the compared runs by construction
		}
		fmt.Fprintf(&b, "%s=%v\n", g.Name, g.Value)
	}
	return b.String()
}

// TestCoverageExploreDeterministicAcrossWorkers is the acceptance gate:
// the coverage-guided pipeline must produce byte-identical results and
// counters for workers = 1 and 4 at a fixed (seed, budget).
func TestCoverageExploreDeterministicAcrossWorkers(t *testing.T) {
	for _, name := range []string{"libsafe", "ssdb"} {
		t.Run(name, func(t *testing.T) {
			p, _ := coverageProgram(t, name)
			var baseFP, baseCounters string
			for _, workers := range []int{1, 4} {
				mc := metrics.New()
				res, err := Run(p, Options{
					Explore: ExploreCoverage, Budget: 24, Seed: 7,
					Workers: workers, EnableAtomicity: true, Metrics: mc,
				})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				fp, cs := fingerprint(res), countersOf(mc)
				if workers == 1 {
					baseFP, baseCounters = fp, cs
					if baseFP == "" {
						t.Fatal("workers=1 produced an empty result")
					}
					continue
				}
				if fp != baseFP {
					t.Errorf("workers=%d result differs:\n--- workers=1\n%s--- workers=%d\n%s",
						workers, baseFP, workers, fp)
				}
				if cs != baseCounters {
					t.Errorf("workers=%d counters differ:\n--- workers=1\n%s--- workers=%d\n%s",
						workers, baseCounters, workers, cs)
				}
			}
		})
	}
}

func TestCoverageExploreEmitsEngineMetrics(t *testing.T) {
	p, _ := coverageProgram(t, "libsafe")
	mc := metrics.New()
	if _, err := Run(p, Options{Explore: ExploreCoverage, Budget: 24, Metrics: mc}); err != nil {
		t.Fatal(err)
	}
	counters := map[string]int64{}
	for _, c := range mc.Snapshot().Counters {
		counters[c.Name] = c.Value
	}
	if counters["sched.rounds"] == 0 {
		t.Error("sched.rounds not emitted")
	}
	if counters["sched.coverage_pairs"] == 0 {
		t.Error("sched.coverage_pairs not emitted")
	}
	var perStrategy int64
	for _, s := range sched.Strategies() {
		perStrategy += counters["sched.runs."+s.String()]
	}
	if perStrategy != counters["owl.detect_runs"] {
		t.Errorf("per-strategy runs sum to %d, owl.detect_runs says %d",
			perStrategy, counters["owl.detect_runs"])
	}
	gauges := map[string]float64{}
	for _, g := range mc.Snapshot().Gauges {
		gauges[g.Name] = g.Value
	}
	if _, ok := gauges["sched.early_stop"]; !ok {
		t.Error("sched.early_stop gauge not emitted")
	}
}

// recordingSched wraps a live scheduler and records the decision vector
// it effectively took (the chosen runnable index at every point with more
// than one runnable thread) — exactly the DecisionSched trace format.
type recordingSched struct {
	inner     interp.Scheduler
	decisions []int
}

func (r *recordingSched) Next(runnable []interp.ThreadID, step int) interp.ThreadID {
	id := r.inner.Next(runnable, step)
	if len(runnable) > 1 {
		idx := 0
		for i, t := range runnable {
			if t == id {
				idx = i
				break
			}
		}
		r.decisions = append(r.decisions, idx)
	}
	return id
}

func raceIDs(p Program, s interp.Scheduler) ([]string, error) {
	d := race.NewDetector()
	m, err := interp.New(interp.Config{
		Module: p.Module, Entry: p.Entry, Inputs: p.Inputs,
		MaxSteps: p.MaxSteps, Sched: s,
		Observers: []interp.Observer{d},
	})
	if err != nil {
		return nil, err
	}
	m.Run()
	var ids []string
	for _, r := range d.Reports() {
		ids = append(ids, r.ID())
	}
	sort.Strings(ids)
	return ids, nil
}

// TestDecisionReplayReproducesCoverageRun is the satellite regression:
// replaying the recorded decision vector of any coverage-guided run
// through a DecisionSched must reproduce that run's exact race report
// set. This is the property the verification stages lean on when they
// re-execute a schedule the explorer found.
func TestDecisionReplayReproducesCoverageRun(t *testing.T) {
	p, _ := coverageProgram(t, "libsafe")
	eng := sched.NewEngine(sched.EngineConfig{Budget: 18, Seed: 3, PCTSteps: p.MaxSteps})
	replayed := 0
	_, err := eng.Explore(func(jobs []*sched.Job) error {
		for _, j := range jobs {
			rec := &recordingSched{inner: j.Sched}
			live, err := raceIDs(p, rec)
			if err != nil {
				return err
			}
			again, err := raceIDs(p, &sched.DecisionSched{Decisions: rec.decisions})
			if err != nil {
				return err
			}
			if strings.Join(live, ",") != strings.Join(again, ",") {
				t.Errorf("%v run: live reports %v, replay reports %v",
					j.Strategy, live, again)
			}
			j.ReportIDs = live
			replayed++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if replayed == 0 {
		t.Fatal("engine scheduled no runs")
	}
}

// applicationWorkloads lists the light-noise application workloads the
// exploration and prediction gates compare on (kernel workloads run
// under the SKI-style detector, which has its own exploration loop).
func applicationWorkloads() []*workloads.Workload {
	var out []*workloads.Workload
	for _, name := range workloads.Names() {
		w := workloads.Get(name, workloads.NoiseLight)
		if w.Kernel || len(w.Attacks) == 0 {
			continue
		}
		out = append(out, w)
	}
	return out
}

// detectTally is one exploration arm summed over applicationWorkloads.
type detectTally struct {
	races      map[string]int // deduplicated raw races per workload
	runs       int            // owl.detect_runs
	saved      int            // predict.schedules_saved
	earlyStops int            // workloads whose engine stopped early
}

// tallyDetectOnly runs pure detection (the later stages disabled, so the
// comparison isolates schedule exploration) at budget 24 on every
// application workload, with arm selecting the exploration mode.
func tallyDetectOnly(t *testing.T, arm func(*Options)) detectTally {
	t.Helper()
	const budget = 24
	tl := detectTally{races: map[string]int{}}
	for _, w := range applicationWorkloads() {
		p, _ := coverageProgram(t, w.Name)
		mc := metrics.New()
		opts := Options{
			DetectRuns: budget, Budget: budget,
			DisableAdhoc: true, DisableRaceVerify: true, DisableVulnVerify: true,
			Metrics: mc,
		}
		arm(&opts)
		res, err := Run(p, opts)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		tl.races[w.Name] = len(res.Raw)
		tl.runs += int(counterValue(mc, "owl.detect_runs"))
		tl.saved += int(counterValue(mc, "predict.schedules_saved"))
		for _, g := range mc.Snapshot().Gauges {
			if g.Name == "sched.early_stop" && g.Value == 1 {
				tl.earlyStops++
			}
		}
	}
	return tl
}

// TestCoverageExploreBeatsFixedGate is the exploration acceptance gate
// (docs/EXPLORATION.md): at equal budget, coverage-guided exploration
// finds at least as many races as the fixed-seed loop on every
// application workload, and either strictly more somewhere or the same
// findings for fewer runs after an early stop.
func TestCoverageExploreBeatsFixedGate(t *testing.T) {
	fixed := tallyDetectOnly(t, func(o *Options) { o.Explore = ExploreFixed })
	cov := tallyDetectOnly(t, func(o *Options) { o.Explore = ExploreCoverage })
	t.Logf("races: coverage %v, fixed %v; runs %d vs %d", cov.races, fixed.races, cov.runs, fixed.runs)
	strictlyMore := 0
	for name, nf := range fixed.races {
		nc := cov.races[name]
		if nc < nf {
			t.Errorf("%s: coverage found %d races, fixed found %d at equal budget", name, nc, nf)
		}
		if nc > nf {
			strictlyMore++
		}
	}
	if strictlyMore == 0 && !(cov.earlyStops > 0 && cov.runs < fixed.runs) {
		t.Errorf("coverage mode showed no win: races %v vs %v, runs %d vs %d",
			cov.races, fixed.races, cov.runs, fixed.runs)
	}
}
