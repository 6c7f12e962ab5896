// Package eval regenerates the paper's evaluation: it runs the OWL
// pipeline over the workload models and produces the rows of Tables 1-4
// plus the per-figure end-to-end experiments. Both the table binaries
// (cmd/owl-tables, cmd/owl-study) and the benchmark harness
// (bench_test.go) are thin wrappers over this package.
package eval

import (
	"fmt"
	"slices"
	"time"

	"github.com/conanalysis/owl/internal/adhoc"
	"github.com/conanalysis/owl/internal/attack"
	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
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
	// Pipeline is the owl.Options every application workload's pipeline
	// runs with. Its Ctx, Metrics and Faults also govern the build
	// itself: Ctx cancels it cooperatively (BuildTablesParallel derives
	// its pool context from it so the first failed workload stops the
	// others promptly), Metrics receives the evaluation's and the
	// study's instrumentation, and Faults also targets the per-workload
	// pool. DetectRuns (default 8) also seeds the study, and MaxSteps
	// (when > 0) also overrides the kernel workloads' step budget.
	// Workers bounds each pipeline's inner pool; BuildTablesParallel
	// already fans out across workloads, so there a zero Workers means
	// 1 and nesting pools is opt-in.
	// FailFast makes a faulted stage fail the build with an error naming
	// the workload and stage; owl-tables sets it by default, since a
	// degraded stage would silently skew a table row.
	Pipeline owl.Options
}

// kernelRuns / kernelDecisions bound the SKI-style exploration of the
// kernel workloads.
const (
	kernelRuns      = 96
	kernelDecisions = 10
)

// Validate rejects whatever owl.Options.Validate rejects in Pipeline.
func (c Config) Validate() error {
	if err := c.Pipeline.Validate(); err != nil {
		return fmt.Errorf("eval: %w", err)
	}
	return nil
}

// prepare validates the configuration and fills in its defaults.
func (c Config) prepare() (Config, error) {
	if err := c.Validate(); err != nil {
		return c, err
	}
	if c.Noise == 0 {
		c.Noise = workloads.NoiseLight
	}
	if c.Pipeline.DetectRuns == 0 {
		c.Pipeline.DetectRuns = 8
	}
	return c, nil
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
	cfg, err := cfg.prepare()
	if err != nil {
		return nil, err
	}
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
		if ctx := cfg.Pipeline.Ctx; ctx != nil && ctx.Err() != nil {
			return nil, fmt.Errorf("eval %s/%s: %w", w.Name, rec.Name, ctx.Err())
		}
		res, err := owl.Run(owl.Program{
			Module: w.Module, Entry: w.Entry, Inputs: rec.Inputs, MaxSteps: w.MaxSteps,
		}, cfg.Pipeline)
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
		if ctx := cfg.Pipeline.Ctx; ctx != nil && ctx.Err() != nil {
			return nil, fmt.Errorf("eval %s/%s: %w", w.Name, rec.Name, ctx.Err())
		}
		maxSteps := w.MaxSteps
		if cfg.Pipeline.MaxSteps > 0 {
			maxSteps = cfg.Pipeline.MaxSteps
		}
		base := interp.Config{Module: w.Module, Entry: w.Entry, Inputs: rec.Inputs, MaxSteps: maxSteps}
		raw, syncs, after, err := kernelReports(base, false)
		if err != nil {
			return nil, fmt.Errorf("eval %s/%s: %w", w.Name, rec.Name, err)
		}
		for _, r := range raw {
			rawIDs[r.Race.ID()] = true
		}
		for _, s := range syncs {
			adhocVars[s.Var] = true
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

// kernelReports runs the SKI-style detector over one kernel recipe and
// then §5.1: it mines the ad-hoc syncs from the raw reports and keeps
// the reports whose racing pair no sync annotates. rerun selects the
// reference instead of the filter, a second exploration with the
// annotations installed.
func kernelReports(base interp.Config, rerun bool) (raw []*ski.Report, syncs []*adhoc.Sync, after []*ski.Report, err error) {
	det := &ski.Detector{MaxRuns: kernelRuns, MaxDecisions: kernelDecisions}
	if raw, _, err = det.Detect(base); err != nil {
		return nil, nil, nil, err
	}
	races := make([]*race.Report, len(raw))
	for i, r := range raw {
		races[i] = r.Race
	}
	syncs = adhoc.NewDetector().Analyze(races)
	if len(syncs) == 0 {
		return raw, nil, raw, nil
	}
	ann := adhoc.Annotate(syncs, nil)
	if !rerun {
		after = slices.DeleteFunc(slices.Clone(raw), func(r *ski.Report) bool { return ann.Suppresses(r.Race) })
		return raw, syncs, after, nil
	}
	det.Benign = ann
	if after, _, err = det.Detect(base); err != nil {
		return nil, nil, nil, fmt.Errorf("re-run: %w", err)
	}
	return raw, syncs, after, nil
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
