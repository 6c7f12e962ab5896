package owl

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/conanalysis/owl/internal/faultinject"
	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/raceverify"
	"github.com/conanalysis/owl/internal/supervise"
	"github.com/conanalysis/owl/internal/workloads"
)

func libsafeProgram(t *testing.T) Program {
	t.Helper()
	w := workloads.Get("libsafe", workloads.NoiseLight)
	rec := w.Recipe(w.Attacks[0].InputRecipe)
	return Program{Module: w.Module, Entry: w.Entry, Inputs: rec.Inputs, MaxSteps: w.MaxSteps}
}

// acceptancePlan is the issue's canned scenario, built fresh per run
// (plans carry per-point fire counts): panic two detect workers, stall
// every vulnverify run past the stage deadline.
func acceptancePlan() *faultinject.Plan {
	return &faultinject.Plan{Seed: 1, Rules: []faultinject.Rule{
		{Stage: "owl.detect", Run: 1, Kind: faultinject.KindPanic, Msg: "malformed IR worker"},
		{Stage: "owl.detect", Run: 3, Kind: faultinject.KindPanic, Msg: "malformed IR worker"},
		{Stage: "owl.vulnverify", Run: -1, Kind: faultinject.KindDelay, DelayMS: 60000},
	}}
}

// robustFingerprint renders the supervisor records byte-comparably.
func robustFingerprint(res *Result) string {
	var b strings.Builder
	for _, q := range res.Quarantined {
		fmt.Fprintf(&b, "quar %s\n", q)
	}
	for _, d := range res.Degraded {
		fmt.Fprintf(&b, "deg %s\n", d)
	}
	return b.String()
}

// counterFingerprint renders the counter section of a metrics snapshot
// (timings and gauges legitimately vary across worker counts; every
// counter must not).
func counterFingerprint(mc *metrics.Collector) string {
	var b strings.Builder
	for _, c := range mc.Snapshot().Counters {
		fmt.Fprintf(&b, "%s=%d\n", c.Name, c.Value)
	}
	return b.String()
}

// TestFaultedPipelineDeterministicAcrossWorkers is the tentpole gate:
// under the acceptance fault plan the pipeline still yields surviving
// races and findings, and the Result, quarantine/degradation records,
// and metrics counters are byte-identical for workers = 1, 4, 8.
func TestFaultedPipelineDeterministicAcrossWorkers(t *testing.T) {
	p := libsafeProgram(t)
	var base string
	for _, workers := range []int{1, 4, 8} {
		mc := metrics.New()
		res, err := Run(p, Options{
			Workers: workers, Metrics: mc,
			Faults: acceptancePlan(), StageTimeout: 2 * time.Second,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res.Raw) == 0 || res.Stats.Findings == 0 {
			t.Fatalf("workers=%d: no surviving races/findings (raw=%d findings=%d)",
				workers, len(res.Raw), res.Stats.Findings)
		}
		if len(res.Quarantined) != 2 {
			t.Fatalf("workers=%d: quarantined = %+v, want the 2 panicked detect runs", workers, res.Quarantined)
		}
		var vvTimeout bool
		for _, d := range res.Degraded {
			if d.Stage == "owl.vulnverify" && d.Reason == "timeout" {
				vvTimeout = true
			}
		}
		if !vvTimeout {
			t.Fatalf("workers=%d: degraded = %+v, want an owl.vulnverify timeout", workers, res.Degraded)
		}
		counters := map[string]int64{}
		for _, c := range mc.Snapshot().Counters {
			counters[c.Name] = c.Value
		}
		if counters["owl.quarantined"] != 2 || counters["owl.degraded_stages"] == 0 || counters["owl.timeouts"] == 0 {
			t.Fatalf("workers=%d: supervisor counters = %v", workers, counters)
		}
		fp := fingerprint(res) + robustFingerprint(res) + counterFingerprint(mc)
		if workers == 1 {
			base = fp
			continue
		}
		if fp != base {
			t.Errorf("workers=%d diverged from workers=1:\n%s", workers, diffLines(base, fp))
		}
	}
}

// diffLines returns the first differing line pair, for readable failures.
func diffLines(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  workers=1: %s\n  other:     %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// TestFailFastNamesFirstFaultedStage: the same plan under -fail-fast
// aborts with an error naming the first faulted stage.
func TestFailFastNamesFirstFaultedStage(t *testing.T) {
	p := libsafeProgram(t)
	res, err := Run(p, Options{
		Faults: acceptancePlan(), StageTimeout: 2 * time.Second, FailFast: true,
	})
	if err == nil {
		t.Fatal("fail-fast pipeline returned nil error under the fault plan")
	}
	if !strings.Contains(err.Error(), "owl.detect") {
		t.Fatalf("error %q does not name the first faulted stage owl.detect", err)
	}
	if res != nil {
		t.Fatal("fail-fast should not return a result")
	}
}

// TestTimeoutPartialResultsSurviveKilledDetect kills most of the detect
// stage with context-aware stalls and checks the runs that beat the
// deadline still feed the rest of the pipeline — and that the partial
// outcome is itself deterministic across worker counts.
func TestTimeoutPartialResultsSurviveKilledDetect(t *testing.T) {
	plan := func() *faultinject.Plan {
		p := &faultinject.Plan{Seed: 2}
		for run := 2; run < 8; run++ {
			p.Rules = append(p.Rules, faultinject.Rule{
				Stage: "owl.detect", Run: run, Kind: faultinject.KindDelay, DelayMS: 60000,
			})
		}
		return p
	}
	prog := libsafeProgram(t)
	var base string
	for _, workers := range []int{1, 4} {
		mc := metrics.New()
		res, err := Run(prog, Options{
			Workers: workers, Metrics: mc,
			Faults: plan(), StageTimeout: 2 * time.Second,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Stats.RawReports == 0 {
			t.Fatalf("workers=%d: the two surviving detect runs produced no reports", workers)
		}
		var detTimeout *supervise.Degradation
		for i := range res.Degraded {
			if res.Degraded[i].Stage == "owl.detect" {
				detTimeout = &res.Degraded[i]
			}
		}
		if detTimeout == nil || detTimeout.Reason != "timeout" || detTimeout.RunsLost != 6 {
			t.Fatalf("workers=%d: degraded = %+v, want owl.detect timeout losing 6 runs", workers, res.Degraded)
		}
		if len(res.Hints) == 0 {
			t.Fatalf("workers=%d: later stages did not run on the partial reports", workers)
		}
		fp := fingerprint(res) + robustFingerprint(res)
		if workers == 1 {
			base = fp
			continue
		}
		if fp != base {
			t.Errorf("workers=%d diverged:\n%s", workers, diffLines(base, fp))
		}
	}
}

// TestTransientFaultRetriesMatchCleanRun: a Times-bounded spurious error
// plus one retry must reproduce the clean-run result exactly, with the
// retries counted and nothing quarantined.
func TestTransientFaultRetriesMatchCleanRun(t *testing.T) {
	prog := libsafeProgram(t)
	clean, err := Run(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := &faultinject.Plan{Seed: 3, Rules: []faultinject.Rule{
		{Stage: "owl.detect", Run: 2, Kind: faultinject.KindError, Times: 1, Msg: "transient io"},
		{Stage: "owl.raceverify", Run: 0, Kind: faultinject.KindError, Times: 1, Msg: "transient io"},
	}}
	mc := metrics.New()
	res, err := Run(prog, Options{Retries: 1, Faults: plan, Metrics: mc})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 0 || len(res.Degraded) != 0 {
		t.Fatalf("retried run still degraded: quar=%+v deg=%+v", res.Quarantined, res.Degraded)
	}
	if got, want := fingerprint(res), fingerprint(clean); got != want {
		t.Errorf("retried result diverged from clean run:\n%s", diffLines(want, got))
	}
	var retries int64
	for _, c := range mc.Snapshot().Counters {
		if c.Name == "owl.retries" {
			retries = c.Value
		}
	}
	if retries != 2 {
		t.Fatalf("owl.retries = %d, want 2", retries)
	}
}

// hintLines renders each hint as one line, keyed by its report.
func hintLines(hints []*raceverify.Hint) map[string]string {
	out := make(map[string]string, len(hints))
	for _, h := range hints {
		out[h.Report.ID()] = fmt.Sprintf("verified=%v attempts=%d read=%d write=%d var=%q null=%v uninit=%v sched=%v",
			h.Verified, h.Attempts, h.ReadVal, h.WriteVal, h.VarName, h.WritesNull, h.ReadsUninitialized, h.Schedule)
	}
	return out
}

// TestRaceVerifyFaultQuarantinesOneReport: the race verifier runs all
// reports as one batch, yet an unbounded error or panic on one report
// index quarantines exactly that report, at any worker count, and every
// other report keeps the clean run's hint.
func TestRaceVerifyFaultQuarantinesOneReport(t *testing.T) {
	prog := libsafeProgram(t)
	clean, err := Run(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const victim = 1
	if len(clean.Annotated) <= victim {
		t.Fatalf("libsafe has %d reports, want more than %d", len(clean.Annotated), victim)
	}
	victimID := clean.Annotated[victim].ID()
	want := hintLines(clean.Hints)
	delete(want, victimID)
	for _, kind := range []faultinject.Kind{faultinject.KindError, faultinject.KindPanic} {
		for _, workers := range []int{1, 3} {
			plan := &faultinject.Plan{Seed: 5, Rules: []faultinject.Rule{
				{Stage: "owl.raceverify", Run: victim, Kind: kind, Msg: "verifier fault"},
			}}
			res, err := Run(prog, Options{Workers: workers, Faults: plan})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", kind, workers, err)
			}
			if len(res.Quarantined) != 1 || res.Quarantined[0].Stage != "owl.raceverify" || res.Quarantined[0].Run != victim {
				t.Fatalf("%s workers=%d: quarantined %+v, want only raceverify run %d", kind, workers, res.Quarantined, victim)
			}
			got := hintLines(res.Hints)
			if _, ok := got[victimID]; ok {
				t.Errorf("%s workers=%d: the quarantined report %s still has a hint", kind, workers, victimID)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s workers=%d: surviving hints differ from the clean run's:\n got %v\nwant %v", kind, workers, got, want)
			}
		}
	}
}

// TestStepBudgetInjectionSurfacesTruncation: a max-steps squeeze on the
// detect stage must be visible as interp.max_steps_hit instead of
// silently truncating.
func TestStepBudgetInjectionSurfacesTruncation(t *testing.T) {
	prog := libsafeProgram(t)
	plan := &faultinject.Plan{Seed: 4, Rules: []faultinject.Rule{
		{Stage: "owl.detect", Run: -1, Kind: faultinject.KindMaxSteps, MaxSteps: 40},
	}}
	mc := metrics.New()
	if _, err := Run(prog, Options{Faults: plan, Metrics: mc}); err != nil {
		t.Fatal(err)
	}
	var hit int64
	for _, c := range mc.Snapshot().Counters {
		if c.Name == "interp.max_steps_hit" {
			hit = c.Value
		}
	}
	if hit != 8 {
		t.Fatalf("interp.max_steps_hit = %d, want all 8 squeezed detect runs", hit)
	}
}

// TestCannedAcceptancePlanLoads keeps the committed CI plan honest: the
// file must parse and reproduce the acceptance scenario end to end.
func TestCannedAcceptancePlanLoads(t *testing.T) {
	plan, err := faultinject.Load("../../testdata/faults/detect-panic-vulnverify-timeout.json")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(libsafeProgram(t), Options{Faults: plan, StageTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 2 || len(res.Degraded) == 0 {
		t.Fatalf("canned plan: quar=%+v deg=%+v", res.Quarantined, res.Degraded)
	}
}
