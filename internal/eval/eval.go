// Package eval regenerates the paper's evaluation: it runs the OWL
// pipeline over the workload models and produces the rows of Tables 1-4
// plus the per-figure end-to-end experiments. Both the table binaries
// (cmd/owl-tables, cmd/owl-study) and the benchmark harness
// (bench_test.go) are thin wrappers over this package.
package eval

import (
	"context"
	"fmt"
	"time"

	"github.com/conanalysis/owl/internal/adhoc"
	"github.com/conanalysis/owl/internal/attack"
	"github.com/conanalysis/owl/internal/faultinject"
	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/owl"
	"github.com/conanalysis/owl/internal/race"
	"github.com/conanalysis/owl/internal/ski"
	"github.com/conanalysis/owl/internal/vuln"
	"github.com/conanalysis/owl/internal/workloads"
)

// Config tunes an evaluation run; the zero value gets sensible defaults.
type Config struct {
	// Noise is the workload noise level (default NoiseLight; the table
	// binaries use NoiseFull to approximate the paper's report shape).
	Noise workloads.NoiseLevel
	// DetectRuns seeds the TSAN-style detection phase (default 8).
	DetectRuns int
	// KernelRuns / KernelDecisions bound the SKI-style exploration
	// (defaults 96 / 10).
	KernelRuns      int
	KernelDecisions int
	// DisableVulnVerify skips the slowest stage (useful in quick tests).
	DisableVulnVerify bool
	// Explore selects the detect-stage exploration mode for application
	// workloads (default owl.ExploreFixed); Budget is the coverage-mode
	// run budget (0 = DetectRuns). See owl.Options.
	Explore owl.ExploreMode
	Budget  int
	// Seed is the base seed for coverage-mode exploration and for the
	// predictive detect stage (see owl.Options.Seed).
	Seed uint64
	// MaxSteps, when > 0, overrides every workload's interpreter step
	// budget (see owl.Options; 0 keeps each workload's own budget).
	MaxSteps int
	// Predict switches application workloads to the predictive detect
	// stage (seed traces → predicted pairs → steered confirmation);
	// PredictReversal additionally enables the optimistic sync-reversal
	// arm. See owl.Options.
	Predict         bool
	PredictReversal bool
	// PipelineWorkers bounds the owl pipeline's inner worker pool per
	// workload (seeded detections and the verification loops). Default 1:
	// BuildTablesParallel already fans out across workloads, so nesting
	// pools is opt-in.
	PipelineWorkers int
	// Metrics, when non-nil, receives per-stage instrumentation from the
	// evaluation, the pipelines it runs, and the study.
	Metrics *metrics.Collector
	// Ctx cancels the build cooperatively (default context.Background());
	// BuildTablesParallel also derives its pool context from it so the
	// first failed workload stops the others promptly.
	Ctx context.Context
	// StageTimeout / Retries / Faults ride down into every workload's
	// owl pipeline (see owl.Options). The pipelines run fail-fast by
	// default: a workload whose stage faults fails the build with an
	// error naming the workload and stage, rather than silently
	// degrading a table. AllowDegraded inverts that (owl-tables
	// -fail-fast=false), letting faulted stages degrade instead.
	StageTimeout  time.Duration
	Retries       int
	Faults        *faultinject.Plan
	AllowDegraded bool
}

func (c Config) withDefaults() Config {
	if c.Noise == 0 {
		c.Noise = workloads.NoiseLight
	}
	if c.DetectRuns <= 0 {
		c.DetectRuns = 8
	}
	if c.KernelRuns <= 0 {
		c.KernelRuns = 96
	}
	if c.KernelDecisions <= 0 {
		c.KernelDecisions = 10
	}
	return c
}

// MatchedAttack pairs a modelled attack with the pipeline evidence that
// found it.
type MatchedAttack struct {
	Spec    workloads.AttackSpec
	Finding *vuln.Finding
	// Confirmed is true when the dynamic vulnerability verifier reached
	// the site (application workloads only; the paper leaves kernel
	// dynamic verification to future work, §8.3).
	Confirmed bool
}

// ProgramEval is the pipeline outcome for one workload, merged across its
// attack recipes.
type ProgramEval struct {
	W *workloads.Workload

	// Table-3 accounting.
	RawReports         int
	AdhocSyncs         int
	AfterAnnotation    int
	VerifierEliminated int
	Remaining          int
	Findings           int
	AnalysisTime       time.Duration

	// Table-2 accounting.
	AttacksModelled int
	AttacksFound    []MatchedAttack

	// per-recipe pipeline results (application workloads).
	Results []*owl.Result
}

// ReductionRatio mirrors owl.Stats.ReductionRatio for the merged numbers.
func (pe *ProgramEval) ReductionRatio() float64 {
	if pe.RawReports == 0 {
		return 0
	}
	return 1 - float64(pe.Remaining)/float64(pe.RawReports)
}

// recipesToRun returns the recipes the evaluation drives: every attack
// recipe, or the first (benign) recipe when the workload has no attacks.
func recipesToRun(w *workloads.Workload) []workloads.Recipe {
	seen := map[string]bool{}
	var out []workloads.Recipe
	for _, a := range w.Attacks {
		if !seen[a.InputRecipe] {
			seen[a.InputRecipe] = true
			out = append(out, w.Recipe(a.InputRecipe))
		}
	}
	if len(out) == 0 && len(w.Recipes) > 0 {
		out = append(out, w.Recipes[0])
	}
	return out
}

// EvalWorkload runs the full pipeline for one workload.
func EvalWorkload(w *workloads.Workload, cfg Config) (*ProgramEval, error) {
	cfg = cfg.withDefaults()
	if w.Kernel {
		return evalKernel(w, cfg)
	}
	return evalApplication(w, cfg)
}

func evalApplication(w *workloads.Workload, cfg Config) (*ProgramEval, error) {
	pe := &ProgramEval{W: w, AttacksModelled: len(w.Attacks)}
	rawIDs := map[string]bool{}
	annIDs := map[string]bool{}
	elimIDs := map[string]bool{}
	adhocVars := map[string]bool{}
	findingKeys := map[string]bool{}

	for _, rec := range recipesToRun(w) {
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			return nil, fmt.Errorf("eval %s/%s: %w", w.Name, rec.Name, cfg.Ctx.Err())
		}
		maxSteps := w.MaxSteps
		if cfg.MaxSteps > 0 {
			maxSteps = cfg.MaxSteps
		}
		res, err := owl.Run(owl.Program{
			Module: w.Module, Entry: w.Entry, Inputs: rec.Inputs, MaxSteps: maxSteps,
		}, owl.Options{
			DetectRuns:        cfg.DetectRuns,
			Explore:           cfg.Explore,
			Budget:            cfg.Budget,
			Seed:              cfg.Seed,
			Predict:           cfg.Predict,
			PredictReversal:   cfg.PredictReversal,
			DisableVulnVerify: cfg.DisableVulnVerify,
			Workers:           cfg.PipelineWorkers,
			Metrics:           cfg.Metrics,
			Ctx:               cfg.Ctx,
			StageTimeout:      cfg.StageTimeout,
			Retries:           cfg.Retries,
			Faults:            cfg.Faults,
			// Degrading a table row would silently skew the evaluation, so
			// the tables pipeline opts out of graceful degradation unless
			// the operator explicitly allowed it.
			FailFast: !cfg.AllowDegraded,
		})
		if err != nil {
			return nil, fmt.Errorf("eval %s/%s: %w", w.Name, rec.Name, err)
		}
		pe.Results = append(pe.Results, res)
		pe.AnalysisTime += res.Stats.AnalysisTime
		for _, r := range res.Raw {
			rawIDs[r.ID()] = true
		}
		for _, r := range res.Annotated {
			annIDs[r.ID()] = true
		}
		for _, s := range res.Syncs {
			adhocVars[s.Var] = true
		}
		for _, h := range res.Hints {
			if !h.Verified {
				elimIDs[h.Report.ID()] = true
			}
		}
		for id, fs := range res.FindingsByReport {
			for _, f := range fs {
				findingKeys[id+"|"+f.Site.FullName()+f.Dep.String()] = true
			}
		}
		// Match modelled attacks against confirmed pipeline attacks.
		for i := range w.Attacks {
			spec := w.Attacks[i]
			if spec.InputRecipe != rec.Name {
				continue
			}
			if m := matchAttack(spec, res); m != nil {
				pe.AttacksFound = append(pe.AttacksFound, *m)
			}
		}
	}
	pe.RawReports = len(rawIDs)
	pe.AdhocSyncs = len(adhocVars)
	pe.AfterAnnotation = len(annIDs)
	pe.VerifierEliminated = len(elimIDs)
	pe.Remaining = pe.AfterAnnotation - pe.VerifierEliminated
	pe.Findings = len(findingKeys)
	return pe, nil
}

// matchAttack looks for pipeline evidence of the modelled attack: a
// finding whose site sits in the spec's function (and callee, if given),
// preferring dynamically confirmed ones.
func matchAttack(spec workloads.AttackSpec, res *owl.Result) *MatchedAttack {
	match := func(f *vuln.Finding) bool {
		if f.Site.Fn == nil || f.Site.Fn.Name != spec.SiteFunc {
			return false
		}
		if spec.SiteCallee != "" {
			if !f.Site.IsCall() || f.Site.Callee().Kind != ir.OperandFunc ||
				f.Site.Callee().Name != spec.SiteCallee {
				return false
			}
		}
		return true
	}
	for _, atk := range res.Attacks {
		if match(atk.Finding) {
			return &MatchedAttack{Spec: spec, Finding: atk.Finding, Confirmed: true}
		}
	}
	for _, fs := range res.FindingsByReport {
		for _, f := range fs {
			if match(f) {
				return &MatchedAttack{Spec: spec, Finding: f}
			}
		}
	}
	return nil
}

func evalKernel(w *workloads.Workload, cfg Config) (*ProgramEval, error) {
	pe := &ProgramEval{W: w, AttacksModelled: len(w.Attacks)}
	rawIDs := map[string]bool{}
	annIDs := map[string]bool{}
	adhocVars := map[string]bool{}
	findingKeys := map[string]bool{}

	for _, rec := range recipesToRun(w) {
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			return nil, fmt.Errorf("eval %s/%s: %w", w.Name, rec.Name, cfg.Ctx.Err())
		}
		maxSteps := w.MaxSteps
		if cfg.MaxSteps > 0 {
			maxSteps = cfg.MaxSteps
		}
		base := interp.Config{Module: w.Module, Entry: w.Entry, Inputs: rec.Inputs, MaxSteps: maxSteps}
		det := &ski.Detector{MaxRuns: cfg.KernelRuns, MaxDecisions: cfg.KernelDecisions}
		reports, _, err := det.Detect(base)
		if err != nil {
			return nil, fmt.Errorf("eval %s/%s: %w", w.Name, rec.Name, err)
		}
		var races []*race.Report
		for _, r := range reports {
			races = append(races, r.Race)
			rawIDs[r.Race.ID()] = true
		}

		// §5.1 on kernel reports, then re-explore with annotations.
		syncs := adhoc.NewDetector().Analyze(races)
		for _, s := range syncs {
			adhocVars[s.Var] = true
		}
		after := reports
		if len(syncs) > 0 {
			det2 := &ski.Detector{MaxRuns: cfg.KernelRuns, MaxDecisions: cfg.KernelDecisions,
				Benign: adhoc.Annotate(syncs, nil)}
			after, _, err = det2.Detect(base)
			if err != nil {
				return nil, fmt.Errorf("eval %s/%s re-run: %w", w.Name, rec.Name, err)
			}
		}
		for _, r := range after {
			annIDs[r.Race.ID()] = true
		}

		// Algorithm 1 from each report's best watched read. The paper did
		// not run the dynamic verifiers on kernels (§8.3), so kernel
		// attacks match on findings only.
		analyzer := vuln.NewAnalyzer(w.Module)
		start := time.Now()
		var all []*vuln.Finding
		for _, r := range after {
			in, stack, ok := r.BestRead()
			if !ok {
				continue
			}
			fs := analyzer.Analyze(in, stack)
			all = append(all, fs...)
			for _, f := range fs {
				findingKeys[r.Race.ID()+"|"+f.Site.FullName()+f.Dep.String()] = true
			}
		}
		pe.AnalysisTime += time.Since(start)
		for i := range w.Attacks {
			spec := w.Attacks[i]
			if spec.InputRecipe != rec.Name {
				continue
			}
			for _, f := range all {
				if f.Site.Fn != nil && f.Site.Fn.Name == spec.SiteFunc &&
					(spec.SiteCallee == "" ||
						(f.Site.IsCall() && f.Site.Callee().Kind == ir.OperandFunc &&
							f.Site.Callee().Name == spec.SiteCallee)) {
					pe.AttacksFound = append(pe.AttacksFound, MatchedAttack{Spec: spec, Finding: f})
					break
				}
			}
		}
	}
	pe.RawReports = len(rawIDs)
	pe.AdhocSyncs = len(adhocVars)
	pe.AfterAnnotation = len(annIDs)
	pe.Remaining = pe.AfterAnnotation
	pe.Findings = len(findingKeys)
	return pe, nil
}

// ExploitCampaign runs the attack drivers for Table 4.
func ExploitCampaign(w *workloads.Workload, maxRuns int) ([]*attack.Result, error) {
	d := attack.NewDriver(w)
	if maxRuns > 0 {
		d.MaxRuns = maxRuns
	}
	var out []*attack.Result
	for _, spec := range w.Attacks {
		r, err := d.Exploit(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
