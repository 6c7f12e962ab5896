// Package owl wires OWL's five components into the Figure-3 pipeline:
//
//  1. a concurrency error detector runs on the program's inputs;
//  2. the static ad-hoc synchronization detector mines the reports,
//     annotates the program, and the detector re-runs (schedule reduction);
//  3. the dynamic race verifier confirms the remaining reports and emits
//     security hints;
//  4. the static vulnerability analyzer (Algorithm 1) computes vulnerable
//     input hints from each verified report;
//  5. the dynamic vulnerability verifier re-runs the program and checks
//     whether each site can actually be reached.
//
// The package also produces the reduction accounting behind the paper's
// Table 3 (raw reports -> ad-hoc annotated -> verifier-eliminated ->
// remaining) and the per-program detection summaries of Table 2.
//
// Every stage runs under a pipeline supervisor (internal/supervise): a
// panicking or erroring run is quarantined instead of killing the
// process, stages respect a per-stage deadline and cooperative
// cancellation, and later stages consume whatever partial results a
// degraded stage produced. Result carries the deterministic Quarantined
// and Degraded records; Options.FailFast opts out of degradation and
// turns the first stage fault into an error.
package owl

import (
	"context"
	"fmt"
	"time"

	"github.com/conanalysis/owl/internal/adhoc"
	"github.com/conanalysis/owl/internal/atomicity"
	"github.com/conanalysis/owl/internal/faultinject"
	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/race"
	"github.com/conanalysis/owl/internal/raceverify"
	"github.com/conanalysis/owl/internal/sched"
	"github.com/conanalysis/owl/internal/supervise"
	"github.com/conanalysis/owl/internal/vuln"
	"github.com/conanalysis/owl/internal/vulnverify"
)

// Program is the unit OWL analyzes: a frozen module plus the workload
// configuration (entry, arguments, input tape).
type Program struct {
	Module   *ir.Module
	Entry    string
	Args     []int64
	Inputs   []int64
	MaxSteps int
}

// ExploreMode selects how the detect stage spends its schedule budget.
type ExploreMode string

// Explore modes. Fixed replays DetectRuns fixed random seeds — the
// original blind loop. Coverage runs the adaptive portfolio search
// (seeded random + PCT + preemption-bounded DFS) steered by the
// interleaving-coverage map; see internal/sched and docs/EXPLORATION.md.
const (
	ExploreFixed    ExploreMode = "fixed"
	ExploreCoverage ExploreMode = "coverage"
)

// snapCacheEntries is the entry budget of the copy-on-write snapshot
// cache every coverage-guided stage builds (docs/EXPLORATION.md).
const snapCacheEntries = 64

// Options tunes the pipeline. The Disable* switches exist for the
// ablation benchmarks.
type Options struct {
	// DetectRuns is the number of seeded detection executions whose
	// deduplicated reports form the raw report set (default 8).
	DetectRuns int

	// Explore selects the detect-stage exploration mode (default
	// ExploreFixed). With ExploreCoverage the detect and atomicity stages
	// run the coverage-guided engine instead of the fixed-seed loop; the
	// result is still deterministic for a fixed (Seed, Budget, Workers).
	Explore ExploreMode

	// Budget is the total run budget of coverage-guided exploration per
	// detect stage (default: DetectRuns). Ignored in fixed mode. The
	// engine may spend less when the search saturates early.
	Budget int

	// Seed is the base seed coverage-guided exploration derives every
	// strategy's per-run seeds from (default 0, which makes the engine's
	// random arm replay the fixed-mode seed sequence 1,2,3,...).
	Seed uint64

	// ExploreState, when non-nil, makes the *initial* coverage-guided
	// detect stage resume from — and fold back into — persistent
	// cross-run exploration state (sched.ExploreState): the engine starts
	// pre-seeded with the state's accumulated coverage and seen-report
	// set (so a repeat run of an already-explored program saturates and
	// early-stops after a fraction of the budget). Only consulted when
	// Explore is ExploreCoverage and Predict is off; the ad-hoc re-run
	// and atomicity stages always explore fresh (their detector
	// configuration differs, so mixing their scores into the shared state
	// would poison resume decisions). The state must have been built for
	// this exact Module value — coverage keys are instruction identities.
	ExploreState *sched.ExploreState

	// Predict switches the detect stages to predictive race detection
	// (-predict; docs/PREDICTION.md): roughly half the budget executes
	// coverage-guided seed schedules whose synchronization traces feed a
	// sync-preserving race predictor, and the rest executes only steered
	// replays that confirm or refute the predicted pairs. Confirmed pairs
	// become ordinary reports (and so flow into raceverify); predictions
	// alone are never reported. Deterministic for a fixed (Seed, Budget,
	// Workers), independent of worker count.
	Predict bool

	// PredictReversal additionally enables the optimistic
	// sync-reversal prediction arm (-predict-reversal), which drops the
	// critical-section ordering edges and predicts more pairs. The extra
	// pairs may be infeasible; confirmation filters them, so soundness is
	// unaffected — only confirm-budget spend.
	PredictReversal bool

	// DisableAdhoc skips step 2; DisableRaceVerify skips step 3;
	// DisableVulnVerify skips step 5.
	DisableAdhoc      bool
	DisableRaceVerify bool
	DisableVulnVerify bool

	// TrackCtrl / InterProcedural configure Algorithm 1 (both default on;
	// see the vuln package for what turning them off reproduces).
	DisableCtrlFlow  bool
	DisableInterProc bool

	// RaceVerifier / VulnVerifier override the default verifiers.
	RaceVerifier *raceverify.Verifier
	VulnVerifier *vulnverify.Verifier

	// Sites overrides the vulnerable-site registry.
	Sites *vuln.Registry

	// EnableAtomicity additionally runs the CTrigger-style
	// atomicity-violation detector and feeds each violation's read side to
	// Algorithm 1 — the integration the paper describes as future work
	// (§8.3). Results land in Result.AtomicityReports /
	// Result.AtomicityFindings.
	EnableAtomicity bool

	// Workers bounds the worker pool the pipeline fans its inner loops
	// over: the seeded detection runs, the per-report race verifications,
	// and the per-finding vulnerability verifications. Every run builds
	// its own machine against the frozen (read-only) module, so workers
	// share nothing and results merge deterministically in seed/report
	// order — Result is byte-identical for any worker count. Values <= 1
	// keep the pipeline fully sequential.
	Workers int

	// Metrics, when non-nil, receives per-stage wall/busy timings,
	// report/finding counters, and worker-utilization gauges for the run.
	Metrics *metrics.Collector

	// Ctx cancels the whole pipeline cooperatively: checked between
	// interpreter runs (job boundaries) and between exploration rounds.
	// A canceled pipeline returns the partial Result with the remaining
	// runs recorded as lost (default context.Background()).
	Ctx context.Context

	// StageTimeout is the per-stage deadline (0 = none). A stage that
	// overruns it loses its unfinished runs and degrades; later stages
	// still run on the partial results.
	StageTimeout time.Duration

	// Retries is the number of extra attempts a faulted run gets (with
	// exponential backoff) before it is quarantined (default 0).
	Retries int

	// Faults is the optional deterministic fault-injection plan
	// (-faults on cmd/owl); nil injects nothing.
	Faults *faultinject.Plan

	// FailFast turns graceful degradation off: the first stage that
	// quarantines or loses a run fails the pipeline with an error naming
	// that stage, instead of degrading and continuing.
	FailFast bool

	// engine and snapEntries leave the production execution path; only
	// this package's tests set them, to run the tree-walking oracle
	// engine or to resize (> 0) or disable (< 0) each coverage-guided
	// stage's snapshot cache. The zero values are production: the
	// compiled engine and snapCacheEntries.
	engine      interp.Engine
	snapEntries int
}

// newSnapCache builds the fresh snapshot cache one coverage-guided
// stage resumes DFS schedules from. The cache never changes results:
// only the sched.snap_* / interp.cow_* counters describe it.
func (o Options) newSnapCache() *sched.SnapCache {
	switch {
	case o.snapEntries < 0:
		return nil
	case o.snapEntries > 0:
		return sched.NewSnapCache(o.snapEntries)
	}
	return sched.NewSnapCache(snapCacheEntries)
}

// Stats is the Table-3 accounting for one program.
type Stats struct {
	RawReports         int           // R.R.
	AdhocSyncs         int           // A.S.
	AfterAnnotation    int           // reports surviving the §5.1 re-run
	VerifierEliminated int           // R.V.E.
	Remaining          int           // R.
	Findings           int           // OWL vulnerability reports
	VerifiedAttacks    int           // sites dynamically confirmed reachable
	AnalysisTime       time.Duration // static-analysis cost (A.C. analogue)
	TotalTime          time.Duration
}

// ReductionRatio returns the fraction of raw reports eliminated before
// the static analysis stage (the paper's 94.3% headline).
func (s Stats) ReductionRatio() float64 {
	if s.RawReports == 0 {
		return 0
	}
	return 1 - float64(s.Remaining)/float64(s.RawReports)
}

// Attack is a fully confirmed bug-to-attack propagation.
type Attack struct {
	Report  *race.Report
	Hint    *raceverify.Hint
	Finding *vuln.Finding
	Outcome *vulnverify.Outcome
}

func (a *Attack) String() string {
	return fmt.Sprintf("%s at %s via %s race on %s",
		a.Finding.Kind, a.Finding.Site.Loc(), a.Finding.Dep, a.Report.AddrName)
}

// Result is the pipeline output.
type Result struct {
	Raw       []*race.Report
	Syncs     []*adhoc.Sync
	Annotated []*race.Report
	Hints     []*raceverify.Hint
	// FindingsByReport maps race-report IDs to Algorithm-1 findings.
	FindingsByReport map[string][]*vuln.Finding
	Outcomes         []*vulnverify.Outcome
	Attacks          []*Attack
	// AtomicityReports / AtomicityFindings are filled when
	// Options.EnableAtomicity is set.
	AtomicityReports  []*atomicity.Report
	AtomicityFindings []*vuln.Finding
	// PredictedConfirmed lists the predicted race IDs that steered
	// replays dynamically confirmed (Options.Predict), across the detect
	// and ad-hoc re-run stages, in confirmation order without duplicates.
	// Every entry also appears in Raw (or Annotated for the re-run).
	PredictedConfirmed []string
	// Quarantined lists the runs the supervisor isolated (panic or
	// error after retries), in stage-then-run order; Degraded lists the
	// stages that lost work and why. Both are empty on a clean run and
	// deterministic for a fixed fault plan regardless of worker count.
	Quarantined []supervise.Quarantined
	Degraded    []supervise.Degradation
	Stats       Stats
}

// Run executes the pipeline over the program.
func Run(p Program, opts Options) (*Result, error) {
	start := time.Now()
	if p.Module == nil || !p.Module.Frozen() {
		return nil, fmt.Errorf("owl: program module missing or not frozen")
	}
	if p.MaxSteps <= 0 {
		p.MaxSteps = 200000
	}
	detectRuns := opts.DetectRuns
	if detectRuns <= 0 {
		detectRuns = 8
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}
	mc := opts.Metrics
	mc.Gauge("owl.workers", float64(workers))
	defer mc.Stage("owl.total")()

	budget := opts.Budget
	if budget <= 0 {
		budget = detectRuns
	}

	sup := supervise.New(supervise.Config{
		Ctx:          opts.Ctx,
		StageTimeout: opts.StageTimeout,
		Retries:      opts.Retries,
		Faults:       opts.Faults,
		Metrics:      mc,
	})

	res := &Result{FindingsByReport: make(map[string][]*vuln.Finding)}
	// finish folds the supervisor's accounting into the Result; every
	// return path (degraded or fail-fast) goes through it so partial
	// results always carry their loss records.
	finish := func() {
		res.Quarantined = sup.Quarantined()
		res.Degraded = sup.Degraded()
		res.Stats.TotalTime = time.Since(start)
	}
	// endStage closes a stage; under FailFast a faulted stage aborts the
	// pipeline with an error naming it.
	endStage := func(st *supervise.StageRun) error {
		faulted := st.Faulted()
		st.Close()
		if opts.FailFast && faulted {
			return st.FaultErr()
		}
		return nil
	}

	// runDetect is one detect stage: the fixed-seed loop or the
	// coverage-guided engine, both merging reports in run order under the
	// given stage's supervision.
	runDetect := func(st *supervise.StageRun, benign *race.Annotations) []*race.Report {
		if opts.Predict {
			reports, confirmed, runs := detectPredict(p, st, budget, workers, benign, opts, mc)
			mc.Count("owl.detect_runs", int64(runs))
			for _, id := range confirmed {
				if !containsID(res.PredictedConfirmed, id) {
					res.PredictedConfirmed = append(res.PredictedConfirmed, id)
				}
			}
			return reports
		}
		if opts.Explore == ExploreCoverage {
			// Persistent state resumes only the initial detect stage: the
			// re-run explores under benign annotations, whose scores must
			// not contaminate the cross-run map.
			var resume *sched.ExploreState
			if benign == nil {
				resume = opts.ExploreState
			}
			reports, runs := detectCoverage(p, st, budget, workers, benign, resume, opts, mc)
			mc.Count("owl.detect_runs", int64(runs))
			return reports
		}
		mc.Count("owl.detect_runs", int64(detectRuns))
		return detect(p, st, detectRuns, workers, benign, opts.engine, mc)
	}

	// Step 1: detection runs over explored schedules; dedupe across runs.
	st := sup.Stage("owl.detect")
	res.Raw = runDetect(st, nil)
	if err := endStage(st); err != nil {
		finish()
		return nil, fmt.Errorf("owl: %w", err)
	}
	res.Stats.RawReports = len(res.Raw)
	mc.Count("owl.raw_reports", int64(res.Stats.RawReports))

	// Step 2: mine ad-hoc synchronizations, annotate, re-run. Mining is
	// guarded (a panic over partial reports degrades to the unannotated
	// set); the re-run's executions are stage "owl.adhoc" for fault keys,
	// so plans targeting "owl.detect" hit only the initial runs.
	working := res.Raw
	if !opts.DisableAdhoc {
		st = sup.Stage("owl.adhoc")
		mined := st.Guard(0, func(context.Context) error {
			res.Syncs = adhoc.NewDetector().Analyze(res.Raw)
			res.Stats.AdhocSyncs = adhoc.UniqueVars(res.Syncs)
			return nil
		})
		if mined && len(res.Syncs) > 0 {
			ann := adhoc.Annotate(res.Syncs, nil)
			working = runDetect(st, ann)
		}
		if err := endStage(st); err != nil {
			finish()
			return nil, fmt.Errorf("owl: %w", err)
		}
	}
	res.Annotated = working
	res.Stats.AfterAnnotation = len(working)
	mc.Count("owl.adhoc_syncs", int64(res.Stats.AdhocSyncs))
	mc.Count("owl.after_annotation", int64(res.Stats.AfterAnnotation))

	// Step 3: dynamic race verification with security hints. Each report
	// is verified on its own freshly built machines, so the per-report
	// loop fans out; hints are collected in report order. A quarantined
	// verification drops its report from every later stage (neither
	// verified nor eliminated — lost).
	mk := factory(p, opts.engine)
	rvLost := 0
	if !opts.DisableRaceVerify {
		rv := opts.RaceVerifier
		if rv == nil {
			rv = raceverify.New()
		}
		st = sup.Stage("owl.raceverify")
		hints := make([]*raceverify.Hint, len(working))
		st.ForEach(0, len(working), workers, func(_ context.Context, i int) error {
			if err := st.Inject(i); err != nil {
				return err
			}
			h, err := rv.Verify(mk, working[i])
			if err != nil {
				return fmt.Errorf("race verification of %s: %w", working[i].ID(), err)
			}
			hints[i] = h
			return nil
		})
		if err := endStage(st); err != nil {
			finish()
			return nil, fmt.Errorf("owl: %w", err)
		}
		for _, h := range hints {
			if h == nil {
				rvLost++
				continue
			}
			res.Hints = append(res.Hints, h)
			if !h.Verified {
				res.Stats.VerifierEliminated++
			}
		}
	} else {
		for _, rep := range working {
			res.Hints = append(res.Hints, &raceverify.Hint{Report: rep, Verified: true})
		}
	}
	res.Stats.Remaining = res.Stats.AfterAnnotation - res.Stats.VerifierEliminated - rvLost
	mc.Count("owl.verifier_eliminated", int64(res.Stats.VerifierEliminated))

	// Step 4: Algorithm 1 on each verified report's read side. The loop
	// stays sequential (findings accumulate in hint order); each hint's
	// analysis is guarded so one pathological report degrades alone.
	analysisStart := time.Now()
	st = sup.Stage("owl.analyze")
	analyzer := vuln.NewAnalyzer(p.Module)
	analyzer.TrackCtrl = !opts.DisableCtrlFlow
	analyzer.InterProcedural = !opts.DisableInterProc
	if opts.Sites != nil {
		analyzer.Sites = opts.Sites
	}
	for j, h := range res.Hints {
		if !h.Verified {
			continue
		}
		rd, ok := h.Report.ReadSide()
		if !ok || rd.Instr == nil {
			continue
		}
		st.Guard(j, func(context.Context) error {
			if err := st.Inject(j); err != nil {
				return err
			}
			findings := analyzer.Analyze(rd.Instr, rd.Stack)
			if len(findings) > 0 {
				res.FindingsByReport[h.Report.ID()] = findings
				res.Stats.Findings += len(findings)
			}
			return nil
		})
	}
	if err := endStage(st); err != nil {
		finish()
		return nil, fmt.Errorf("owl: %w", err)
	}
	mc.Count("owl.findings", int64(res.Stats.Findings))
	// Optional CTrigger-style stage: atomicity violations also feed
	// Algorithm 1 (paper §8.3 integration).
	if opts.EnableAtomicity {
		st = sup.Stage("owl.atomicity")
		if opts.Explore == ExploreCoverage {
			res.AtomicityReports = detectAtomicityCoverage(p, st, budget, workers, opts, mc)
		} else {
			res.AtomicityReports = detectAtomicity(p, st, detectRuns, workers, opts.engine, mc)
		}
		for _, ar := range res.AtomicityReports {
			in, stack, ok := atomicity.ReadSideOf(ar)
			if !ok {
				continue
			}
			res.AtomicityFindings = append(res.AtomicityFindings, analyzer.Analyze(in, stack)...)
		}
		if err := endStage(st); err != nil {
			finish()
			return nil, fmt.Errorf("owl: %w", err)
		}
	}
	res.Stats.AnalysisTime = time.Since(analysisStart)

	// Step 5: dynamic vulnerability verification. The (hint, finding)
	// pairs form an order-stable job list; outcomes land back in job order
	// so the output is independent of worker count. A quarantined or lost
	// verification leaves its slot nil — no outcome, no attack.
	if !opts.DisableVulnVerify {
		vv := opts.VulnVerifier
		if vv == nil {
			vv = vulnverify.New()
		}
		type vvJob struct {
			h *raceverify.Hint
			f *vuln.Finding
		}
		var vvJobs []vvJob
		for _, h := range res.Hints {
			if !h.Verified {
				continue
			}
			for _, f := range res.FindingsByReport[h.Report.ID()] {
				vvJobs = append(vvJobs, vvJob{h: h, f: f})
			}
		}
		st = sup.Stage("owl.vulnverify")
		outs := make([]*vulnverify.Outcome, len(vvJobs))
		st.ForEach(0, len(vvJobs), workers, func(_ context.Context, i int) error {
			if err := st.Inject(i); err != nil {
				return err
			}
			out, err := vv.Verify(mk, vvJobs[i].f)
			if err != nil {
				return fmt.Errorf("vulnerability verification at %s: %w", vvJobs[i].f.Site.Loc(), err)
			}
			outs[i] = out
			return nil
		})
		if err := endStage(st); err != nil {
			finish()
			return nil, fmt.Errorf("owl: %w", err)
		}
		for i, out := range outs {
			if out == nil {
				continue
			}
			res.Outcomes = append(res.Outcomes, out)
			if out.Reached {
				res.Stats.VerifiedAttacks++
				res.Attacks = append(res.Attacks, &Attack{
					Report:  vvJobs[i].h.Report,
					Hint:    vvJobs[i].h,
					Finding: vvJobs[i].f,
					Outcome: out,
				})
			}
		}
	}
	mc.Count("owl.outcomes", int64(len(res.Outcomes)))
	mc.Count("owl.attacks", int64(len(res.Attacks)))
	finish()
	return res, nil
}

// detectAtomicity runs the atomicity detector across seeded schedules,
// fanning the runs over the stage's supervised pool and merging
// violations by ID in seed order (so the output is independent of worker
// count). A quarantined or lost run contributes no reports.
func detectAtomicity(p Program, st *supervise.StageRun, runs, workers int, eng interp.Engine, mc *metrics.Collector) []*atomicity.Report {
	perSeed := make([][]*atomicity.Report, runs)
	st.ForEach(0, runs, workers, func(_ context.Context, i int) error {
		if err := st.Inject(i); err != nil {
			return err
		}
		d := atomicity.NewDetector()
		m, err := interp.New(interp.Config{
			Module: p.Module, Entry: p.Entry, Args: p.Args, Inputs: p.Inputs,
			MaxSteps: st.StepBudget(i, p.MaxSteps), Sched: sched.NewRandom(uint64(i + 1)),
			Observers: []interp.Observer{d}, Engine: eng,
		})
		if err != nil {
			return fmt.Errorf("build machine: %w", err)
		}
		if m.Run().MaxStepsHit {
			mc.Count("interp.max_steps_hit", 1)
		}
		flushMachineMetrics(m, mc)
		perSeed[i] = d.Reports()
		return nil
	})
	merged := map[string]*atomicity.Report{}
	var order []*atomicity.Report
	for _, reports := range perSeed {
		for _, r := range reports {
			if existing, ok := merged[r.ID()]; ok {
				existing.Count += r.Count
				continue
			}
			merged[r.ID()] = r
			order = append(order, r)
		}
	}
	return order
}

// detect runs the race detector across seeded schedules, fanning the runs
// over the stage's supervised pool. Every run builds a private machine
// and detector against the frozen module; only the per-seed report
// slices are shared, each written by exactly one worker. Reports merge by
// ID in seed order, so the result is identical for any worker count; a
// quarantined or lost run leaves its slot empty and the survivors merge.
func detect(p Program, st *supervise.StageRun, runs, workers int, benign *race.Annotations, eng interp.Engine, mc *metrics.Collector) []*race.Report {
	perSeed := make([][]*race.Report, runs)
	st.ForEach(0, runs, workers, func(_ context.Context, i int) error {
		if err := st.Inject(i); err != nil {
			return err
		}
		d := race.NewDetector()
		d.Benign = benign
		m, err := interp.New(interp.Config{
			Module: p.Module, Entry: p.Entry, Args: p.Args, Inputs: p.Inputs,
			MaxSteps: st.StepBudget(i, p.MaxSteps), Sched: sched.NewRandom(uint64(i + 1)),
			Observers: []interp.Observer{d}, Engine: eng,
		})
		if err != nil {
			return fmt.Errorf("build machine: %w", err)
		}
		if m.Run().MaxStepsHit {
			mc.Count("interp.max_steps_hit", 1)
		}
		flushMachineMetrics(m, mc)
		d.FlushMetrics(mc) // Collector.Count is mutex-guarded; safe per worker
		perSeed[i] = d.Reports()
		return nil
	})
	merged := map[string]*race.Report{}
	var order []*race.Report
	for _, reports := range perSeed {
		for _, r := range reports {
			if existing, ok := merged[r.ID()]; ok {
				existing.Count += r.Count
				continue
			}
			merged[r.ID()] = r
			order = append(order, r)
		}
	}
	return order
}

// detectCoverage runs the race detector under the coverage-guided
// exploration engine: a portfolio of schedule strategies spends the run
// budget in rounds, scored by new interleaving coverage and new deduped
// reports, with early stop on saturation. Rounds fan out over the stage's
// supervised pool exactly like the fixed-seed loop; reports merge by ID
// in the engine's job order (strategy/seed order within each round), so
// the result is byte-identical for any worker count. Fault-injection run
// indices count globally across rounds. It returns the merged reports
// and the number of runs actually spent.
func detectCoverage(p Program, st *supervise.StageRun, budget, workers int, benign *race.Annotations, resume *sched.ExploreState, opts Options, mc *metrics.Collector) ([]*race.Report, int) {
	snap := opts.newSnapCache()
	eng := sched.NewEngine(sched.EngineConfig{Budget: budget, Seed: opts.Seed, PCTSteps: p.MaxSteps, Snap: snap, Resume: resume})
	merged := map[string]*race.Report{}
	var order []*race.Report
	base := 0
	res, _ := eng.ExploreCtx(st.Ctx(), func(jobs []*sched.Job) error {
		perJob := make([][]*race.Report, len(jobs))
		st.ForEach(base, len(jobs), workers, func(_ context.Context, idx int) error {
			if err := st.Inject(idx); err != nil {
				return err
			}
			i := idx - base
			j := jobs[i]
			d := race.NewDetector()
			d.Benign = benign
			m, err := j.Run(interp.Config{
				Module: p.Module, Entry: p.Entry, Args: p.Args, Inputs: p.Inputs,
				MaxSteps: st.StepBudget(idx, p.MaxSteps), Sched: j.Sched,
				Observers:       []interp.Observer{d},
				SwitchObservers: []interp.SwitchObserver{j.Cov},
				Engine:          opts.engine,
			})
			if err != nil {
				return fmt.Errorf("run machine: %w", err)
			}
			if m.Result().MaxStepsHit {
				mc.Count("interp.max_steps_hit", 1)
			}
			flushMachineMetrics(m, mc)
			d.FlushMetrics(mc)
			perJob[i] = d.Reports()
			return nil
		})
		base += len(jobs)
		for i, reports := range perJob {
			ids := make([]string, len(reports))
			for k, r := range reports {
				ids[k] = r.ID()
			}
			jobs[i].ReportIDs = ids
			for _, r := range reports {
				if existing, ok := merged[r.ID()]; ok {
					existing.Count += r.Count
					continue
				}
				merged[r.ID()] = r
				order = append(order, r)
			}
		}
		return nil
	})
	resume.Absorb(eng)
	flushEngineMetrics(res, mc)
	flushSnapMetrics(snap, mc)
	return order, res.Runs
}

// detectAtomicityCoverage is detectCoverage for the CTrigger-style
// atomicity detector.
func detectAtomicityCoverage(p Program, st *supervise.StageRun, budget, workers int, opts Options, mc *metrics.Collector) []*atomicity.Report {
	snap := opts.newSnapCache()
	eng := sched.NewEngine(sched.EngineConfig{Budget: budget, Seed: opts.Seed, PCTSteps: p.MaxSteps, Snap: snap})
	merged := map[string]*atomicity.Report{}
	var order []*atomicity.Report
	base := 0
	res, _ := eng.ExploreCtx(st.Ctx(), func(jobs []*sched.Job) error {
		perJob := make([][]*atomicity.Report, len(jobs))
		st.ForEach(base, len(jobs), workers, func(_ context.Context, idx int) error {
			if err := st.Inject(idx); err != nil {
				return err
			}
			i := idx - base
			j := jobs[i]
			d := atomicity.NewDetector()
			m, err := j.Run(interp.Config{
				Module: p.Module, Entry: p.Entry, Args: p.Args, Inputs: p.Inputs,
				MaxSteps: st.StepBudget(idx, p.MaxSteps), Sched: j.Sched,
				Observers:       []interp.Observer{d},
				SwitchObservers: []interp.SwitchObserver{j.Cov},
				Engine:          opts.engine,
			})
			if err != nil {
				return fmt.Errorf("run machine: %w", err)
			}
			if m.Result().MaxStepsHit {
				mc.Count("interp.max_steps_hit", 1)
			}
			flushMachineMetrics(m, mc)
			perJob[i] = d.Reports()
			return nil
		})
		base += len(jobs)
		for i, reports := range perJob {
			ids := make([]string, len(reports))
			for k, r := range reports {
				ids[k] = r.ID()
			}
			jobs[i].ReportIDs = ids
			for _, r := range reports {
				if existing, ok := merged[r.ID()]; ok {
					existing.Count += r.Count
					continue
				}
				merged[r.ID()] = r
				order = append(order, r)
			}
		}
		return nil
	})
	flushEngineMetrics(res, mc)
	flushSnapMetrics(snap, mc)
	return order
}

// flushEngineMetrics threads one exploration's accounting into the
// collector: the coverage-map size, round/early-stop facts, and
// per-strategy run/hit counters (hits = deduped reports the strategy
// observed first). Counters accumulate across the initial detect, the
// ad-hoc re-run, and the atomicity stage; the early-stop flag is a gauge,
// so the last exploration of the run wins.
func flushEngineMetrics(res *sched.EngineResult, mc *metrics.Collector) {
	mc.Count("sched.rounds", int64(res.Rounds))
	mc.Count("sched.coverage_pairs", int64(res.CoveragePairs))
	mc.Flag("sched.early_stop", res.EarlyStop)
	for _, s := range sched.Strategies() {
		st := res.Strategies[s]
		mc.Count("sched.runs."+s.String(), int64(st.Runs))
		mc.Count("sched.hits."+s.String(), int64(st.NewReports))
		mc.Count("sched.cov."+s.String(), int64(st.NewCoverage))
	}
}

// flushMachineMetrics threads one detect-run machine's compiled-engine
// accounting into the collector; a no-op under the tree-walking oracle.
// bytecode.compile_ns (a memoized per-module constant, so a last-wins
// gauge) and the bytecode.superinstr_hits dispatch statistic are the
// only metrics allowed to differ between engines — everything else the
// pipeline emits is covered by the cross-engine parity test.
func flushMachineMetrics(m *interp.Machine, mc *metrics.Collector) {
	if m.Engine() != interp.EngineBytecode {
		return
	}
	mc.Gauge("bytecode.compile_ns", float64(m.CompileNS()))
	mc.Count("bytecode.superinstr_hits", m.SuperinstrHits())
}

// flushSnapMetrics threads one stage's snapshot-cache accounting into
// the collector. These are the only counters allowed to differ between
// snapshotting on and off; everything else the pipeline emits is
// covered by the byte-identical determinism gate.
func flushSnapMetrics(snap *sched.SnapCache, mc *metrics.Collector) {
	if snap == nil {
		return
	}
	st := snap.Stats()
	mc.Count("sched.snap_hits", st.Hits)
	mc.Count("sched.snap_misses", st.Misses)
	mc.Count("sched.snap_stores", st.Stores)
	mc.Count("sched.snap_evictions", st.Evictions)
	mc.Count("sched.snap_resume_steps_saved", st.StepsSaved)
	mc.Count("interp.cow_pages_copied", st.CowPages)
}

func containsID(ids []string, id string) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// factory builds verification machines for the program.
func factory(p Program, eng interp.Engine) raceverify.MachineFactory {
	return func(s interp.Scheduler, bp interp.BreakpointFunc) (*interp.Machine, error) {
		return interp.New(interp.Config{
			Module: p.Module, Entry: p.Entry, Args: p.Args, Inputs: p.Inputs,
			MaxSteps: p.MaxSteps, Sched: s, Breakpoint: bp, Engine: eng,
		})
	}
}
