package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/owl"
	"github.com/conanalysis/owl/internal/race"
	"github.com/conanalysis/owl/internal/report"
	"github.com/conanalysis/owl/internal/sched"
	"github.com/conanalysis/owl/internal/workloads"
)

// stages are the pipeline stages owl.Run times into its collector, in the
// order it runs them.
var stages = []string{"owl.detect", "owl.adhoc", "owl.raceverify", "owl.analyze", "owl.vulnverify"}

// batchConfig describes a batch workload: one caller running owl.Run in
// whole cycles over a fixed set of jobs, a job being one program under
// one exploration seed.
type batchConfig struct {
	noise    workloads.NoiseLevel
	programs []string
	// seeds is the pool of exploration seeds every program runs under.
	// Each cycle runs every (program, seed) pair once; the run seed only
	// orders a cycle, so every run measures the same work.
	seeds []uint64
	// attacks is the verified-attack count of each (program, seed) pair,
	// keyed "program@seed" and measured at the commit that introduced the
	// benchmark; the first job of each pair must find exactly that many.
	attacks map[string]int
	// options are the owl.Options the workload names for an exploration
	// seed; everything else keeps its production default.
	options func(seed uint64) owl.Options
	// probeBudget is the exploration budget of the sched probe.
	probeBudget int
}

// verifyHeavy: race verification is most of each job, detection a sliver.
var verifyHeavy = batchWorkload("verify-heavy",
	batchConfig{
		noise:    workloads.NoiseFull,
		programs: []string{"apache", "memcached", "ssdb"},
		// Fixed exploration takes no seed.
		seeds:       []uint64{0},
		attacks:     map[string]int{"apache@0": 7, "memcached@0": 0, "ssdb@0": 12},
		options:     func(uint64) owl.Options { return owl.Options{} },
		probeBudget: 16,
	})

// exploreLight: detection and the ad-hoc re-run dominate each job.
var exploreLight = batchWorkload("explore-light",
	batchConfig{
		noise:    workloads.NoiseLight,
		programs: []string{"apache", "chrome", "linux", "mysql"},
		seeds:    []uint64{1, 2, 3, 4},
		attacks: map[string]int{
			"apache@1": 7, "apache@2": 7, "apache@3": 7, "apache@4": 7,
			"chrome@1": 6, "chrome@2": 6, "chrome@3": 6, "chrome@4": 6,
			"linux@1": 2, "linux@2": 2, "linux@3": 2, "linux@4": 2,
			// mysql's count depends on the exploration seed.
			"mysql@1": 3, "mysql@2": 3, "mysql@3": 3, "mysql@4": 4,
		},
		options: func(seed uint64) owl.Options {
			return owl.Options{Explore: owl.ExploreCoverage, Budget: 64, Seed: seed}
		},
		probeBudget: 64,
	})

func batchWorkload(name string, cfg batchConfig) workload {
	return workload{name: name, setup: func(seed uint64, buildMS *[]float64) (env, error) {
		e := &batchEnv{cfg: cfg, seed: seed}
		for _, n := range cfg.programs {
			start := time.Now()
			t, err := workloadTarget(n, cfg.noise)
			if err != nil {
				return nil, err
			}
			*buildMS = append(*buildMS, ms(time.Since(start)))
			if err := warmUp(t.prog); err != nil {
				return nil, err
			}
			p := &t
			e.progs = append(e.progs, p)
			for _, s := range cfg.seeds {
				want, ok := cfg.attacks[fmt.Sprintf("%s@%d", n, s)]
				if !ok {
					return nil, fmt.Errorf("no reference attack count for %s@%d", n, s)
				}
				e.cycle = append(e.cycle, &batchCase{prog: p, seed: s, attacks: want})
			}
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		rng.Shuffle(len(e.cycle), func(i, j int) { e.cycle[i], e.cycle[j] = e.cycle[j], e.cycle[i] })
		return e, nil
	}}
}

// target is one program of a workload's corpus.
type target struct {
	name    string // display name, "workload/recipe"
	prog    owl.Program
	rebuild func() *ir.Module // builds a fresh copy of the module
	// sample is one pipeline result of the program, whose reports and
	// findings feed the verifier probes.
	sample *owl.Result
}

// workloadTarget builds a registered workload model the way cmd/owl does:
// the first attack's input recipe, else the first recipe.
func workloadTarget(name string, lvl workloads.NoiseLevel) (target, error) {
	w := workloads.Get(name, lvl)
	if w == nil {
		return target{}, fmt.Errorf("unknown workload model %q", name)
	}
	recipe := ""
	if len(w.Attacks) > 0 {
		recipe = w.Attacks[0].InputRecipe
	} else if len(w.Recipes) > 0 {
		recipe = w.Recipes[0].Name
	}
	rec := w.Recipe(recipe)
	return target{
		name:    w.Name + "/" + rec.Name,
		prog:    owl.Program{Module: w.Module, Entry: w.Entry, Inputs: rec.Inputs, MaxSteps: w.MaxSteps},
		rebuild: func() *ir.Module { return workloads.Get(name, lvl).Module },
	}, nil
}

// warmUp runs the program once under the race detector, so first-touch
// costs land in set-up rather than in the first timed job.
func warmUp(p owl.Program) error {
	m, err := newMachine(p, sched.NewRandom(1), "", race.NewDetector())
	if err != nil {
		return err
	}
	m.Run()
	return nil
}

func newMachine(p owl.Program, s interp.Scheduler, eng interp.Engine, obs ...interp.Observer) (*interp.Machine, error) {
	return interp.New(interp.Config{
		Module: p.Module, Entry: p.Entry, Args: p.Args, Inputs: p.Inputs,
		MaxSteps: p.MaxSteps, Sched: s, Observers: obs, Engine: eng,
	})
}

// batchCase is one (program, exploration seed) job of a cycle and what
// the benchmark recorded about it while running.
type batchCase struct {
	prog    *target
	seed    uint64
	attacks int    // verified attacks the first job must find
	ref     string // first job's summary; later jobs must match it
	jobs    int
}

type batchEnv struct {
	cfg   batchConfig
	seed  uint64
	progs []*target
	cycle []*batchCase // in the run seed's order

	// filled by the traced pass
	stageMS    map[string]float64 // summed per stage
	detectRuns int64
	tracedJobs int
}

func (e *batchEnv) close() {}

func (e *batchEnv) pass(d time.Duration, tr *Tracer) (*passResult, error) {
	pr := &passResult{tally: newTally()}
	if tr != nil {
		e.stageMS = map[string]float64{}
		e.detectRuns, e.tracedJobs = 0, 0
	}
	runtime.GC()
	heap := startHeapSampler(time.Millisecond)
	start := time.Now()
	for time.Since(start) < d {
		for _, c := range e.cycle {
			e.job(c, tr, pr)
		}
	}
	pr.elapsed = time.Since(start)
	pr.peakMB = heap.stop()
	return pr, nil
}

// job runs one owl.Run and checks it. Traced, it records the job span
// and one child span per pipeline stage from the job's collector; the
// stages run one after another, so the children are laid end to end from
// the job's start (the collector gives their lengths, not their starts).
func (e *batchEnv) job(c *batchCase, tr *Tracer, pr *passResult) {
	opts := e.cfg.options(c.seed)
	if tr != nil {
		opts.Metrics = metrics.New()
	}
	c.jobs++
	start := time.Now()
	res, err := owl.Run(c.prog.prog, opts)
	end := time.Now()
	if err != nil {
		pr.tally.fail(failError, fmt.Sprintf("%s: %v", c.prog.name, err))
		return
	}
	if msg := c.check(res); msg != "" {
		pr.tally.fail(failMismatch, msg)
	} else {
		pr.tally.ok()
		pr.jobs++
		pr.latMS = append(pr.latMS, ms(end.Sub(start)))
	}
	if tr == nil {
		return
	}
	job := fmt.Sprintf("%s@%d#%d", c.prog.name, c.seed, c.jobs)
	id := tr.Add("owl.Run", job, 0, start, end)
	snap := opts.Metrics.Snapshot()
	at := start
	for _, name := range stages {
		for _, s := range snap.Stages {
			if s.Name == name {
				tr.Add(name, job, id, at, at.Add(s.Wall))
				at = at.Add(s.Wall)
				e.stageMS[name] += ms(s.Wall)
			}
		}
	}
	for _, ct := range snap.Counters {
		if ct.Name == "owl.detect_runs" {
			e.detectRuns += ct.Value
		}
	}
	e.tracedJobs++
	if c.prog.sample == nil {
		c.prog.sample = res
	}
}

// check compares a result with the case's reference: the first job must
// find the pair's verified-attack count, and every later job's summary
// must equal the first one's.
func (c *batchCase) check(res *owl.Result) string {
	name := c.prog.name
	sum := summary(name, res)
	if c.ref == "" {
		if res.Stats.VerifiedAttacks != c.attacks {
			return fmt.Sprintf("%s seed %d: %d verified attacks, want %d", name, c.seed, res.Stats.VerifiedAttacks, c.attacks)
		}
		c.ref = sum
		return ""
	}
	if sum != c.ref {
		return fmt.Sprintf("%s seed %d: summary differs from the first job's:\n%s\nvs\n%s", name, c.seed, sum, c.ref)
	}
	return ""
}

// summary is report.Text without its wall-clock line.
func summary(name string, res *owl.Result) string {
	var keep []string
	for _, line := range strings.Split(report.Text(name, res), "\n") {
		if !strings.HasPrefix(line, "static analysis time:") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

func (e *batchEnv) layers(tr *Tracer, out map[string]float64, t *tally) error {
	agg := aggregate(tr.Spans())
	n := float64(e.tracedJobs)
	out["owl.job_ms"] = agg["owl.Run"].WallMS / n
	for _, s := range stages {
		out[s+"_ms"] = e.stageMS[s] / n
	}
	out["owl.self_ms"] = meanSelfMS(agg, "owl.Run")
	out["sched.runs_per_job"] = float64(e.detectRuns) / n

	if err := probeLayers(tr, e.progs, e.seed, e.cfg.probeBudget, out); err != nil {
		return err
	}
	noise := "light"
	if e.cfg.noise == workloads.NoiseFull {
		noise = "full"
	}
	return serveProbe(tr, e.cfg.programs, noise, out, t)
}
