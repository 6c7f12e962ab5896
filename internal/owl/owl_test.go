package owl

import (
	"testing"
	"time"

	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/vuln"
	"github.com/conanalysis/owl/internal/workloads"
)

// pipelineSrc combines everything the pipeline must handle: an ad-hoc
// synchronization (benign, must be annotated away), a benign stat-counter
// race (must survive annotation but carry no attack), and the Libsafe-style
// dying race whose control dependence reaches a strcpy overflow.
const pipelineSrc = `
global @dying = 0
global @started = 0
global @stat = 0
global @payload = "AAAAAAAAAAAAAAAA"

func @stack_check(%dst) {
entry:
  %d = load @dying
  %c = icmp ne %d, 0
  br %c, bypass, check
bypass:
  ret 0
check:
  ret 1
}

func @libsafe_strcpy(%dst, %src) {
entry:
  %ok = call @stack_check(%dst)
  %c = icmp eq %ok, 0
  br %c, docopy, checked
docopy:
  %r = call @strcpy(%dst, %src)
  ret %r
checked:
  ret 0
}

func @die_thread() {
entry:
  jmp wait
wait:
  %s = load @started
  %c = icmp ne %s, 0
  br %c, go, wait
go:
  %v = load @stat
  %v2 = add %v, 1
  store %v2, @stat
  call @io_delay(2)
  store 1, @dying
  ret 0
}

func @main() {
entry:
  %t = call @spawn(@die_thread)
  store 1, @started
  %v = load @stat
  %v2 = add %v, 1
  store %v2, @stat
  call @io_delay(2)
  %buf = call @malloc(4)
  %src = addr @payload
  %r = call @libsafe_strcpy(%buf, %src)
  %j = call @join(%t)
  ret 0
}
`

func runPipeline(t *testing.T, opts Options) *Result {
	t.Helper()
	mod := ir.MustParse("pipeline.oir", pipelineSrc)
	res, err := Run(Program{Module: mod, MaxSteps: 100000}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPipelineEndToEnd(t *testing.T) {
	res := runPipeline(t, Options{DetectRuns: 12})

	if res.Stats.RawReports == 0 {
		t.Fatal("no raw race reports")
	}
	if res.Stats.AdhocSyncs == 0 {
		t.Error("adhoc sync on @started not mined")
	}
	if res.Stats.AfterAnnotation >= res.Stats.RawReports {
		t.Errorf("annotation did not reduce reports: %d -> %d",
			res.Stats.RawReports, res.Stats.AfterAnnotation)
	}
	if res.Stats.Remaining == 0 {
		t.Fatal("race verifier eliminated everything, including the real race")
	}
	// The dying race must survive and produce a strcpy finding.
	foundStrcpy := false
	for _, fs := range res.FindingsByReport {
		for _, f := range fs {
			if f.Site.IsCall() && f.Site.Callee().Kind == ir.OperandFunc &&
				f.Site.Callee().Name == "strcpy" && f.Dep == vuln.DepCtrl {
				foundStrcpy = true
			}
		}
	}
	if !foundStrcpy {
		t.Error("strcpy CTRL_DEP finding missing")
	}
	// And the vulnerability verifier must confirm it reachable.
	confirmed := false
	for _, atk := range res.Attacks {
		if atk.Finding.Site.IsCall() && atk.Finding.Site.Callee().Name == "strcpy" {
			confirmed = true
			if atk.Outcome.Schedule == nil {
				t.Error("confirmed attack lacks witness schedule")
			}
		}
	}
	if !confirmed {
		t.Error("strcpy attack not dynamically confirmed")
	}
	if res.Stats.ReductionRatio() <= 0 {
		t.Errorf("reduction ratio = %v, want > 0", res.Stats.ReductionRatio())
	}
}

func TestPipelineAblationAdhocDisabled(t *testing.T) {
	withA := runPipeline(t, Options{DetectRuns: 12})
	without := runPipeline(t, Options{DetectRuns: 12, DisableAdhoc: true})
	if without.Stats.AdhocSyncs != 0 {
		t.Errorf("adhoc disabled but syncs = %d", without.Stats.AdhocSyncs)
	}
	if without.Stats.AfterAnnotation < withA.Stats.AfterAnnotation {
		t.Errorf("disabling adhoc should not reduce surviving reports (%d vs %d)",
			without.Stats.AfterAnnotation, withA.Stats.AfterAnnotation)
	}
}

func TestPipelineAblationCtrlFlowDisabled(t *testing.T) {
	res := runPipeline(t, Options{DetectRuns: 12, DisableCtrlFlow: true})
	for _, fs := range res.FindingsByReport {
		for _, f := range fs {
			if f.Site.IsCall() && f.Site.Callee().Kind == ir.OperandFunc &&
				f.Site.Callee().Name == "strcpy" {
				t.Error("ctrl-flow-disabled analysis should miss the strcpy site")
			}
		}
	}
}

func TestPipelineRejectsBadProgram(t *testing.T) {
	if _, err := Run(Program{}, Options{}); err == nil {
		t.Error("want error for nil module")
	}
	unfrozen := ir.NewModule("x")
	if _, err := Run(Program{Module: unfrozen}, Options{}); err == nil {
		t.Error("want error for unfrozen module")
	}
}

// TestPipelineRejectsInvalidOptions pins that Run validates before it
// runs anything: a misspelled explore mode used to fall through to
// fixed mode silently, and negative counts meant their defaults.
func TestPipelineRejectsInvalidOptions(t *testing.T) {
	mod := ir.MustParse("pipeline.oir", pipelineSrc)
	for name, tc := range map[string]struct {
		prog Program
		opts Options
	}{
		"unknown explore":    {Program{Module: mod}, Options{Explore: "coverag"}},
		"negative runs":      {Program{Module: mod}, Options{DetectRuns: -4}},
		"negative budget":    {Program{Module: mod}, Options{Explore: ExploreCoverage, Budget: -3}},
		"negative workers":   {Program{Module: mod}, Options{Workers: -1}},
		"negative retries":   {Program{Module: mod}, Options{Retries: -2}},
		"negative timeout":   {Program{Module: mod}, Options{StageTimeout: -time.Second}},
		"negative steps":     {Program{Module: mod, MaxSteps: -7}, Options{}},
		"negative max-steps": {Program{Module: mod}, Options{MaxSteps: -7}},
		"reversal only":      {Program{Module: mod}, Options{Explore: ExploreCoverage, PredictReversal: true}},
	} {
		mc := metrics.New()
		tc.opts.Metrics = mc
		if _, err := Run(tc.prog, tc.opts); err == nil {
			t.Errorf("%s: Run accepted invalid input", name)
		}
		if n := len(mc.Snapshot().Counters); n != 0 {
			t.Errorf("%s: rejected run still recorded %d counters", name, n)
		}
	}
	for _, mode := range []ExploreMode{"", ExploreFixed, ExploreCoverage} {
		if err := (Options{Explore: mode}).Validate(); err != nil {
			t.Errorf("Validate(%q) = %v, want nil", mode, err)
		}
	}
	if err := (Options{Predict: true, PredictReversal: true}).Validate(); err != nil {
		t.Errorf("Validate(predict with reversal) = %v, want nil", err)
	}
}

// TestOptionsMaxStepsOverridesProgram pins the one step-budget
// override every front end maps -max-steps / max_steps onto: a positive
// Options.MaxSteps replaces Program.MaxSteps, and 0 keeps it.
func TestOptionsMaxStepsOverridesProgram(t *testing.T) {
	mod := ir.MustParse("pipeline.oir", pipelineSrc)
	for _, tc := range []struct {
		opts      Options
		truncated bool
	}{
		{Options{}, false},
		{Options{MaxSteps: 5}, true},
	} {
		mc := metrics.New()
		tc.opts.Metrics = mc
		if _, err := Run(Program{Module: mod, MaxSteps: 100000}, tc.opts); err != nil {
			t.Fatal(err)
		}
		hit := false
		for _, c := range mc.Snapshot().Counters {
			hit = hit || (c.Name == "interp.max_steps_hit" && c.Value > 0)
		}
		if hit != tc.truncated {
			t.Errorf("MaxSteps=%d: truncated=%v, want %v", tc.opts.MaxSteps, hit, tc.truncated)
		}
	}
}

func TestPipelineAtomicityIntegration(t *testing.T) {
	// A check-then-act pattern: the length is validated, then re-read for
	// the copy; the atomicity stage must surface the violation and feed
	// Algorithm 1 to the memcpy.
	src := `
global @len = 0

func @attacker() {
entry:
  call @io_delay(2)
  store 99, @len
  ret 0
}
func @main() {
entry:
  %t = call @spawn(@attacker)
  %a = load @len
  %ok = icmp lt %a, 8
  br %ok, copy, out
copy:
  call @io_delay(2)
  %b = load @len
  %dst = call @malloc(8)
  %src = call @malloc(128)
  %r = call @memcpy(%dst, %src, %b)
  %j1 = call @join(%t)
  ret 0
out:
  %j2 = call @join(%t)
  ret 0
}
`
	mod := ir.MustParse("atom.oir", src)
	res, err := Run(Program{Module: mod, MaxSteps: 50000},
		Options{DetectRuns: 20, EnableAtomicity: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AtomicityReports) == 0 {
		t.Fatal("no atomicity violations reported")
	}
	found := false
	for _, f := range res.AtomicityFindings {
		if f.Site.IsCall() && f.Site.Callee().Kind == ir.OperandFunc &&
			f.Site.Callee().Name == "memcpy" {
			found = true
		}
	}
	if !found {
		t.Errorf("atomicity stage produced no memcpy finding (reports: %d, findings: %d)",
			len(res.AtomicityReports), len(res.AtomicityFindings))
	}
	// Without the option the fields stay empty.
	res2, err := Run(Program{Module: mod, MaxSteps: 50000}, Options{DetectRuns: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.AtomicityReports) != 0 || len(res2.AtomicityFindings) != 0 {
		t.Error("atomicity stage ran without being enabled")
	}
}

func TestStatsReductionRatio(t *testing.T) {
	s := Stats{RawReports: 100, Remaining: 6}
	if got := s.ReductionRatio(); got < 0.93 || got > 0.95 {
		t.Errorf("ratio = %v, want 0.94", got)
	}
	if (Stats{}).ReductionRatio() != 0 {
		t.Error("zero raw reports should give ratio 0")
	}
}

// TestPipelineAblations holds the DESIGN.md §5 design-choice ablations on
// the light-noise workloads: switching a stage or analysis off must lose
// what it exists for — the control-dependence and inter-procedural
// analyses the Libsafe strcpy site (§9's Livshits-style and
// Conseq/Yamaguchi-style limitations), the §5.1 ad-hoc pruning and the
// §5.2 race verification their share of the surviving reports.
func TestPipelineAblations(t *testing.T) {
	run := func(t *testing.T, name, recipe string, opts Options) *Result {
		t.Helper()
		w := workloads.Get(name, workloads.NoiseLight)
		res, err := Run(Program{
			Module: w.Module, Entry: w.Entry, Inputs: w.Recipe(recipe).Inputs, MaxSteps: w.MaxSteps,
		}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	strcpyFound := func(res *Result) int {
		for _, fs := range res.FindingsByReport {
			for _, f := range fs {
				if f.Site.IsCall() && f.Site.Callee().Name == "strcpy" {
					return 1
				}
			}
		}
		return 0
	}
	annotated := func(res *Result) int { return len(res.Annotated) }
	remaining := func(res *Result) int { return res.Stats.Remaining }
	cases := []struct {
		name, workload, recipe string
		off                    Options
		measure                func(*Result) int
		// fewerWhenOff: switching the choice off must lower the measure
		// (findings lost); otherwise it must raise it (reports kept).
		fewerWhenOff bool
	}{
		{"ctrl-dep", "libsafe", "attack", Options{DisableCtrlFlow: true}, strcpyFound, true},
		{"inter-proc", "libsafe", "attack", Options{DisableInterProc: true}, strcpyFound, true},
		{"adhoc", "mysql", "flush-attack", Options{DisableAdhoc: true}, annotated, false},
		{"race-verify", "memcached", "benign", Options{DisableRaceVerify: true}, remaining, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			with := tc.measure(run(t, tc.workload, tc.recipe, Options{}))
			without := tc.measure(run(t, tc.workload, tc.recipe, tc.off))
			lost := without < with
			if !tc.fewerWhenOff {
				lost = with < without
			}
			if !lost {
				t.Errorf("%s on %s/%s: %d with, %d without", tc.name, tc.workload, tc.recipe, with, without)
			}
		})
	}
}
