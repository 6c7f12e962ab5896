// Package owl wires OWL's five components into the Figure-3 pipeline:
//
//  1. a concurrency error detector runs on the program's inputs;
//  2. the static ad-hoc synchronization detector mines the reports and
//     annotates the syncs it finds; the reports those annotations
//     suppress are dropped. An annotation only suppresses a racing
//     pair's report, so this is what re-running the detector under the
//     annotations would return, without the second detection;
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
	"errors"
	"fmt"
	"runtime"
	"slices"
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

// InlineMaxSteps is the step budget of a user-supplied program (cmd/owl
// -file, an inline owl-serve submission), which carries no budget of its
// own the way a built-in workload does.
const InlineMaxSteps = 500000

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
	// pre-seeded with the state's accumulated coverage and its stored
	// reports' IDs as the seen set (so a repeat run of an
	// already-explored program saturates and early-stops after a
	// fraction of the budget). Only consulted when
	// Resumes() holds, and only by the initial detect stage: it starts
	// from the state's stored reports, so a short resumed exploration
	// still returns the program's whole report set, and it folds its
	// coverage and new reports back in. The atomicity stage always
	// explores fresh (its detector differs, so mixing its scores into
	// the shared state would poison resume decisions). The state must
	// have been built for this exact Module value — coverage keys and
	// stored reports name instructions.
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

	// EnableAtomicity additionally runs the CTrigger-style
	// atomicity-violation detector and feeds each violation's read side to
	// Algorithm 1 — the integration the paper describes as future work
	// (§8.3). Results land in Result.AtomicityReports /
	// Result.AtomicityFindings.
	EnableAtomicity bool

	// MaxSteps, when > 0, overrides the program's interpreter step budget
	// per run (-max-steps; default 0 keeps Program.MaxSteps).
	MaxSteps int

	// Workers bounds the worker pool the pipeline fans its inner loops
	// over: the seeded detection runs, the race verifier's seeds, and
	// the per-finding vulnerability verifications. Every run builds its
	// own machine against the frozen (read-only) module, so workers
	// share nothing and results merge deterministically in seed/report
	// order — Result is byte-identical for any worker count. 0 (the
	// default) means runtime.GOMAXPROCS(0); 1 keeps the pipeline fully
	// sequential, which a caller that already runs pipelines side by
	// side (a server shard, a table build) should ask for.
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
	// rerunAdhoc makes the ad-hoc stage re-run detection under the mined
	// annotations instead of filtering the raw reports: the reference
	// the filter is tested against (export_test.go).
	rerunAdhoc bool
}

// Validate rejects option values no pipeline can run: an unknown
// explore mode, negative counts or deadlines, and PredictReversal
// without Predict, which the pipeline would ignore. Zero always means
// the documented default. Run calls it first; front ends call it to
// reject a bad flag or request before doing any work.
func (o Options) Validate() error {
	switch o.Explore {
	case "", ExploreFixed, ExploreCoverage:
	default:
		return fmt.Errorf("unknown explore mode %q (want fixed or coverage)", o.Explore)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"runs", o.DetectRuns},
		{"budget", o.Budget},
		{"max-steps", o.MaxSteps},
		{"workers", o.Workers},
		{"retries", o.Retries},
	} {
		if f.v < 0 {
			return fmt.Errorf("negative %s (%d) is invalid", f.name, f.v)
		}
	}
	if o.StageTimeout < 0 {
		return fmt.Errorf("negative stage timeout (%v) is invalid", o.StageTimeout)
	}
	if o.PredictReversal && !o.Predict {
		return errors.New("predict-reversal is invalid without predict")
	}
	return nil
}

// Resumes reports whether the options take part in cross-run resume:
// only plain coverage-guided exploration (no prediction) feeds and
// consumes ExploreState.
func (o Options) Resumes() bool {
	return o.Explore == ExploreCoverage && !o.Predict
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
	AfterAnnotation    int           // raw reports no §5.1 annotation suppresses
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
	// replays of the detect stage dynamically confirmed
	// (Options.Predict), in confirmation order without duplicates. Every
	// entry also appears in Raw.
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
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("owl: %w", err)
	}
	if p.Module == nil || !p.Module.Frozen() {
		return nil, fmt.Errorf("owl: program module missing or not frozen")
	}
	if p.MaxSteps < 0 {
		return nil, fmt.Errorf("owl: negative step budget (%d) is invalid", p.MaxSteps)
	}
	if p.MaxSteps == 0 {
		p.MaxSteps = 200000
	}
	if opts.MaxSteps > 0 {
		p.MaxSteps = opts.MaxSteps
	}
	if opts.DetectRuns <= 0 {
		opts.DetectRuns = 8
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Budget <= 0 {
		opts.Budget = opts.DetectRuns
	}
	mc := opts.Metrics
	mc.Gauge("owl.workers", float64(opts.Workers))
	defer mc.Stage("owl.total")()

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

	// runDetect is one race-detect stage under the given stage's
	// supervision: predictive detection, or the fixed or coverage-guided
	// schedules, merging reports in run order. resume, when non-nil, is
	// the program's exploration state: the stage starts from its stored
	// reports and coverage and folds what it found back in. benign is
	// set only by the ad-hoc stage's reference re-run.
	runDetect := func(st *supervise.StageRun, benign *race.Annotations, resume *sched.ExploreState) []*race.Report {
		r := newRunner(p, opts, st, attachRace(benign, mc), raceKind)
		if opts.Predict {
			for _, id := range detectPredict(r) {
				if !slices.Contains(res.PredictedConfirmed, id) {
					res.PredictedConfirmed = append(res.PredictedConfirmed, id)
				}
			}
		} else {
			for _, sr := range resume.Reports() {
				r.set.insert(bindReport(p.Module, sr), sr.ID)
			}
			n := len(r.set.order)
			eng := r.explore(resume)
			if resume != nil {
				resume.Absorb(eng, stableReports(r.set.order[n:], r.set.ids[n:]))
			}
		}
		mc.Count("owl.detect_runs", int64(r.runs))
		if benign != nil && opts.Predict {
			// The reference's confirm replays run unannotated detectors.
			return slices.DeleteFunc(r.set.order, benign.Suppresses)
		}
		return r.set.order
	}

	// Step 1: detection runs over explored schedules; dedupe across runs.
	// Only this stage resumes from, and feeds, the exploration state.
	st := sup.Stage("owl.detect")
	var resume *sched.ExploreState
	if opts.Resumes() {
		resume = opts.ExploreState
	}
	res.Raw = runDetect(st, nil, resume)
	if err := endStage(st); err != nil {
		finish()
		return nil, fmt.Errorf("owl: %w", err)
	}
	res.Stats.RawReports = len(res.Raw)
	mc.Count("owl.raw_reports", int64(res.Stats.RawReports))

	// Step 2: mine ad-hoc synchronizations and drop the raw reports they
	// annotate. An annotation only suppresses a racing pair's report and
	// never touches happens-before state, so re-running the detector
	// over the same schedules would report exactly the raw set minus
	// those pairs (DESIGN.md §5); the re-run survives as the test-only
	// reference (rerunAdhoc). Mining is guarded: a panic over partial
	// reports degrades to the unannotated set.
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
			if opts.rerunAdhoc {
				working = runDetect(st, ann, nil)
			} else {
				working = slices.DeleteFunc(slices.Clone(res.Raw), ann.Suppresses)
			}
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

	// Step 3: dynamic race verification with security hints. The
	// verifier runs all reports at once, seed by seed, resuming each
	// report's attempt from the seed's shared prefix; the per-report loop
	// then delivers the outcomes in report order under the supervisor.
	// A report's first try takes the batch's outcome, a retry verifies
	// the report alone. A quarantined verification drops its report
	// from every later stage (neither verified nor eliminated — lost).
	mk := factory(p, opts.engine)
	rvLost := 0
	if !opts.DisableRaceVerify {
		rv := raceverify.New()
		st = sup.Stage("owl.raceverify")
		batch := rv.VerifyAll(st.Ctx(), mk, working, opts.Workers)
		hints := make([]*raceverify.Hint, len(working))
		tried := make([]bool, len(working))
		st.ForEach(0, len(working), opts.Workers, func(_ context.Context, i int) error {
			if err := st.Inject(i); err != nil {
				return err
			}
			h, err := batch.Hints[i], batch.Errs[i]
			if tried[i] {
				h, err = rv.Verify(mk, working[i])
			}
			tried[i] = true
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
		r := newRunner(p, opts, st, attachAtomicity, atomicityKind)
		r.explore(nil)
		res.AtomicityReports = r.set.order
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
		vv := vulnverify.New()
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
		st.ForEach(0, len(vvJobs), opts.Workers, func(_ context.Context, i int) error {
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

// attachFn wires one detector into the configuration of the run with
// global index idx. The function it returns runs on the same worker once
// the run is over and collects the run's reports, so the detector's
// state is dropped with the run rather than held for the whole batch.
type attachFn[R any] func(cfg *interp.Config, idx int) (collect func() []R)

// runner executes one detect stage's schedules. Each batch fans over
// the stage's supervised pool, every run on a private machine against
// the frozen module, so workers share nothing; runs merge into set in
// job order, so the stage's output is the same for any worker count. A
// quarantined or lost run merges nothing. Fault-injection and
// step-budget run indices count globally across batches.
type runner[R report, K comparable] struct {
	p      Program
	opts   Options
	st     *supervise.StageRun
	attach attachFn[R]
	set    reportSet[R, K]
	runs   int // runs started so far: the index of the next batch's first run
}

// newRunner returns a runner whose set dedups reports as kind says.
func newRunner[R report, K comparable](p Program, opts Options, st *supervise.StageRun, attach attachFn[R], kind reportKind[R, K]) *runner[R, K] {
	return &runner[R, K]{p: p, opts: opts, st: st, attach: attach, set: reportSet[R, K]{kind: kind, index: map[K]int{}}}
}

// batch runs one batch of jobs and merges their reports in job order.
func (r *runner[R, K]) batch(jobs []*sched.Job) {
	base, mc := r.runs, r.opts.Metrics
	perJob := make([][]R, len(jobs))
	r.st.ForEach(base, len(jobs), r.opts.Workers, func(_ context.Context, idx int) error {
		if err := r.st.Inject(idx); err != nil {
			return err
		}
		j := jobs[idx-base]
		// Detection reads reports, never the run's schedule: a job's
		// decisions live in its scheduler.
		cfg := interp.Config{
			Module: r.p.Module, Entry: r.p.Entry, Args: r.p.Args, Inputs: r.p.Inputs,
			MaxSteps: r.st.StepBudget(idx, r.p.MaxSteps), Sched: j.Sched, Engine: r.opts.engine,
			NoSchedule: true,
		}
		if j.Cov != nil {
			cfg.SwitchObservers = []interp.SwitchObserver{j.Cov}
		}
		collect := r.attach(&cfg, idx)
		m, err := j.Run(cfg)
		if err != nil {
			return fmt.Errorf("run machine: %w", err)
		}
		if m.Result().MaxStepsHit {
			mc.Count("interp.max_steps_hit", 1)
		}
		flushMachineMetrics(m, mc)
		perJob[idx-base] = collect()
		return nil
	})
	for i, reports := range perJob {
		jobs[i].ReportIDs = r.set.add(reports)
	}
	r.runs += len(jobs)
}

// explore runs the stage's schedules. Fixed mode is one batch of random
// schedules seeded 1..DetectRuns, the sequence the engine's random arm
// replays at Seed 0, and returns nil. Coverage mode is the guided
// engine, resuming from resume when it is non-nil, and returns it.
func (r *runner[R, K]) explore(resume *sched.ExploreState) *sched.Engine {
	if r.opts.Explore != ExploreCoverage {
		jobs := make([]*sched.Job, r.opts.DetectRuns)
		for i := range jobs {
			seed := uint64(i + 1)
			jobs[i] = &sched.Job{Strategy: sched.StrategyRandom, Seed: seed, Sched: sched.NewRandom(seed)}
		}
		r.batch(jobs)
		return nil
	}
	snap := r.opts.newSnapCache()
	eng := r.engine(sched.EngineConfig{Budget: r.opts.Budget, Seed: r.opts.Seed, PCTSteps: r.p.MaxSteps, Snap: snap, Resume: resume})
	flushSnapMetrics(snap, r.opts.Metrics)
	return eng
}

// engine runs a coverage-guided exploration round by round as batches,
// folds its accounting into the metrics, and returns the quiescent
// engine for the caller to absorb.
func (r *runner[R, K]) engine(cfg sched.EngineConfig) *sched.Engine {
	eng := sched.NewEngine(cfg)
	// The runner never fails a round: a faulted run is the supervisor's
	// to record, so ExploreCtx's error is always nil.
	res, _ := eng.ExploreCtx(r.st.Ctx(), func(jobs []*sched.Job) error {
		r.batch(jobs)
		return nil
	})
	flushEngineMetrics(res, r.opts.Metrics)
	return eng
}

// report is what a detect stage merges: a report with an ID string.
type report interface{ ID() string }

// reportKind is how a detect stage dedups one kind of report: by a
// comparable key built without formatting, a repeat adding its dynamic
// Count to the first.
type reportKind[R report, K comparable] struct {
	key   func(R) K
	count func(R) *int
}

// raceKind keys race reports by their unordered instruction pair, the
// identity race.Report.ID spells out.
var raceKind = reportKind[*race.Report, [2]*ir.Instr]{
	key:   func(r *race.Report) [2]*ir.Instr { return pairKey(r.Prev.Instr, r.Cur.Instr) },
	count: func(r *race.Report) *int { return &r.Count },
}

// raceRunner is a race-detect stage's runner.
type raceRunner = runner[*race.Report, [2]*ir.Instr]

// atomKey is an atomicity report's identity, as its ID spells it out.
type atomKey struct {
	first, remote, second *ir.Instr
	kind                  atomicity.Kind
}

var atomicityKind = reportKind[*atomicity.Report, atomKey]{
	key: func(r *atomicity.Report) atomKey {
		return atomKey{r.First.Instr, r.Remote.Instr, r.Second.Instr, r.Kind}
	},
	count: func(r *atomicity.Report) *int { return &r.Count },
}

// pairKey orders an unordered instruction pair by stable position, so
// both orders of one racing pair share a key.
func pairKey(a, b *ir.Instr) [2]*ir.Instr {
	pa, _ := ir.PosOf(a)
	pb, _ := ir.PosOf(b)
	if pb.Func < pa.Func || (pb.Func == pa.Func && pb.Index < pa.Index) {
		a, b = b, a
	}
	return [2]*ir.Instr{a, b}
}

// reportSet is a detect stage's deduplicated reports, in first-seen
// order; ids[i] is order[i]'s ID, built once.
type reportSet[R report, K comparable] struct {
	kind  reportKind[R, K]
	index map[K]int // key -> position in order
	order []R
	ids   []string
}

// add merges one run's reports and returns their IDs. A repeat reuses
// the first report's ID string.
func (s *reportSet[R, K]) add(reports []R) []string {
	ids := make([]string, len(reports))
	for i, r := range reports {
		k := s.kind.key(r)
		if at, ok := s.index[k]; ok {
			*s.kind.count(s.order[at]) += *s.kind.count(r)
			ids[i] = s.ids[at]
			continue
		}
		ids[i] = r.ID()
		s.insert(r, ids[i])
	}
	return ids
}

// insert merges a report whose ID is already known, such as a stored
// report a resumed stage starts from. A repeat is dropped.
func (s *reportSet[R, K]) insert(r R, id string) {
	k := s.kind.key(r)
	if s.has(k) {
		return
	}
	s.index[k] = len(s.order)
	s.order = append(s.order, r)
	s.ids = append(s.ids, id)
}

// has reports whether a report with key k has been merged.
func (s *reportSet[R, K]) has(k K) bool {
	_, ok := s.index[k]
	return ok
}

// stableReports renders race reports, whose IDs are ids, for the
// exploration state.
func stableReports(reports []*race.Report, ids []string) []sched.StableReport {
	out := make([]sched.StableReport, len(reports))
	for i, r := range reports {
		out[i] = sched.StableReport{ID: ids[i], Prev: stableAccess(r.Prev), Cur: stableAccess(r.Cur), AddrName: r.AddrName, Count: r.Count}
	}
	return out
}

func stableAccess(a race.Access) sched.StableAccess {
	pos, _ := ir.PosOf(a.Instr)
	return sched.StableAccess{
		TID: int(a.TID), IsWrite: a.IsWrite, Addr: a.Addr, Val: a.Val,
		Instr: pos, Stack: a.Stack.Clone(), Step: a.Step,
	}
}

// bindReport rebuilds a stored report against m, the module the
// exploration state was built for.
func bindReport(m *ir.Module, sr sched.StableReport) *race.Report {
	return &race.Report{Prev: bindAccess(m, sr.Prev), Cur: bindAccess(m, sr.Cur), AddrName: sr.AddrName, Count: sr.Count}
}

func bindAccess(m *ir.Module, a sched.StableAccess) race.Access {
	return race.Access{
		TID: interp.ThreadID(a.TID), IsWrite: a.IsWrite, Addr: a.Addr, Val: a.Val,
		Instr: m.InstrAtPos(a.Instr), Stack: a.Stack.Clone(), Step: a.Step,
	}
}

// attachRace wires a race detector, honoring the benign annotations, into
// every run; collecting a run's reports flushes its detector counters
// and returns its shadow table to the pool for the next run.
func attachRace(benign *race.Annotations, mc *metrics.Collector) attachFn[*race.Report] {
	return func(cfg *interp.Config, _ int) func() []*race.Report {
		d := race.NewDetector()
		d.Benign = benign
		cfg.Observers = append(cfg.Observers, d)
		return func() []*race.Report {
			d.FlushMetrics(mc) // Collector.Count is mutex-guarded; safe per worker
			d.Release()
			return d.Reports()
		}
	}
}

// attachAtomicity wires the CTrigger-style atomicity detector into every
// run.
func attachAtomicity(cfg *interp.Config, _ int) func() []*atomicity.Report {
	d := atomicity.NewDetector()
	cfg.Observers = append(cfg.Observers, d)
	return d.Reports
}

// flushEngineMetrics threads one exploration's accounting into the
// collector: the coverage-map size, round/early-stop facts, and
// per-strategy run/hit counters (hits = deduped reports the strategy
// observed first). Counters accumulate across the detect and atomicity
// stages; the early-stop flag is a gauge, so the last exploration of the
// run wins.
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
// gauge) is the only metric allowed to differ between engines —
// everything else the pipeline emits is covered by the cross-engine
// parity test.
func flushMachineMetrics(m *interp.Machine, mc *metrics.Collector) {
	if m.Engine() != interp.EngineBytecode {
		return
	}
	mc.Gauge("bytecode.compile_ns", float64(m.CompileNS()))
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

// factory builds verification machines for the program.
func factory(p Program, eng interp.Engine) raceverify.MachineFactory {
	return func(s interp.Scheduler, bp interp.BreakpointFunc) (*interp.Machine, error) {
		return interp.New(interp.Config{
			Module: p.Module, Entry: p.Entry, Args: p.Args, Inputs: p.Inputs,
			MaxSteps: p.MaxSteps, Sched: s, Breakpoint: bp, Engine: eng,
		})
	}
}
