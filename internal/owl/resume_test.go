package owl

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/sched"
)

// resultFingerprint flattens the deterministic parts of a Result for
// equality checks (report IDs in merge order plus the Table-3 stats,
// timings zeroed).
func resultFingerprint(res *Result) string {
	s := res.Stats
	s.AnalysisTime, s.TotalTime = 0, 0
	out := fmt.Sprintf("stats=%+v\nraw=", s)
	for _, r := range res.Raw {
		out += r.ID() + ","
	}
	out += "\nattacks="
	for _, a := range res.Attacks {
		out += a.String() + ";"
	}
	return out
}

// detectRunsOf extracts the owl.detect_runs counter — the executed
// schedule count the resume acceptance gate compares.
func detectRunsOf(t *testing.T, mc *metrics.Collector) int64 {
	t.Helper()
	for _, c := range mc.Snapshot().Counters {
		if c.Name == "owl.detect_runs" {
			return c.Value
		}
	}
	t.Fatal("owl.detect_runs counter missing")
	return 0
}

// TestExploreStateFreshRunIsByteIdentical pins that threading an *empty*
// ExploreState changes nothing: the first submission through the service
// must render byte-for-byte what cmd/owl renders for the same options.
func TestExploreStateFreshRunIsByteIdentical(t *testing.T) {
	p, _ := coverageProgram(t, "libsafe")

	mcPlain := metrics.New()
	plain, err := Run(p, Options{Explore: ExploreCoverage, Budget: 24, Seed: 7, Workers: 2, Metrics: mcPlain})
	if err != nil {
		t.Fatal(err)
	}
	mcState := metrics.New()
	st := sched.NewExploreState()
	warmed, err := Run(p, Options{
		Explore: ExploreCoverage, Budget: 24, Seed: 7, Workers: 2,
		Metrics: mcState, ExploreState: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := resultFingerprint(plain), resultFingerprint(warmed); a != b {
		t.Errorf("empty-state run diverged from stateless run:\n--- plain ---\n%s\n--- with state ---\n%s", a, b)
	}
	if a, b := countersOf(mcPlain), countersOf(mcState); a != b {
		t.Errorf("counters diverged:\n--- plain ---\n%s--- with state ---\n%s", a, b)
	}
	if !st.Warm() {
		t.Error("state not warm after first run")
	}
}

// TestExploreStateResumeExecutesFewerSchedules is the resume acceptance
// gate at the pipeline level: a repeat run of the same program against
// the same state must saturate immediately and execute strictly fewer
// schedules at equal budget, and a third run must repeat the second's
// count exactly (cross-submission determinism).
func TestExploreStateResumeExecutesFewerSchedules(t *testing.T) {
	p, _ := coverageProgram(t, "libsafe")
	st := sched.NewExploreState()
	opts := func(mc *metrics.Collector) Options {
		return Options{
			Explore: ExploreCoverage, Budget: 24, Seed: 7, Workers: 2,
			Metrics: mc, ExploreState: st,
		}
	}

	mc1 := metrics.New()
	if _, err := Run(p, opts(mc1)); err != nil {
		t.Fatal(err)
	}
	first := detectRunsOf(t, mc1)

	mc2 := metrics.New()
	if _, err := Run(p, opts(mc2)); err != nil {
		t.Fatal(err)
	}
	second := detectRunsOf(t, mc2)
	if second >= first {
		t.Errorf("resumed run executed %d schedules, want strictly fewer than %d", second, first)
	}

	mc3 := metrics.New()
	if _, err := Run(p, opts(mc3)); err != nil {
		t.Fatal(err)
	}
	if third := detectRunsOf(t, mc3); third != second {
		t.Errorf("third run executed %d schedules, want %d (resume determinism)", third, second)
	}
	if st.Explorations() != 3 {
		t.Errorf("explorations absorbed = %d, want 3", st.Explorations())
	}
}

// TestExploreStateIgnoredOutsideCoverage pins the guard: fixed-mode and
// predict-mode pipelines leave the state untouched.
func TestExploreStateIgnoredOutsideCoverage(t *testing.T) {
	p, _ := coverageProgram(t, "libsafe")
	st := sched.NewExploreState()
	if _, err := Run(p, Options{Explore: ExploreFixed, DetectRuns: 4, ExploreState: st}); err != nil {
		t.Fatal(err)
	}
	if st.Warm() {
		t.Error("fixed-mode run absorbed into the explore state")
	}
	if _, err := Run(p, Options{
		Explore: ExploreCoverage, Predict: true, Budget: 8, ExploreState: st,
	}); err != nil {
		t.Fatal(err)
	}
	if st.Warm() {
		t.Error("predict-mode run absorbed into the explore state")
	}
}

// TestExploreStateResumeKeepsReports: a resumed detect stage runs only a
// few schedules, so it must start from the state's stored reports. On
// ssdb at budget 16 the resumed runs alone miss reports the cold run
// found; the resumed Result must still list the cold run's reports in
// the cold run's order, with the same witnesses, and confirm the same
// attacks.
func TestExploreStateResumeKeepsReports(t *testing.T) {
	p, _ := coverageProgram(t, "ssdb")
	st := sched.NewExploreState()
	run := func() (*Result, int64) {
		mc := metrics.New()
		res, err := Run(p, Options{Explore: ExploreCoverage, Budget: 16, Metrics: mc, ExploreState: st})
		if err != nil {
			t.Fatal(err)
		}
		return res, detectRunsOf(t, mc)
	}
	cold, coldRuns := run()
	for i := 2; i <= 3; i++ {
		res, runs := run()
		if len(res.Raw) != len(cold.Raw) {
			t.Fatalf("run %d: %d raw reports, cold run had %d", i, len(res.Raw), len(cold.Raw))
		}
		for j, r := range res.Raw {
			c := cold.Raw[j]
			if r.ID() != c.ID() || !reflect.DeepEqual(r.Prev, c.Prev) || !reflect.DeepEqual(r.Cur, c.Cur) {
				t.Errorf("run %d: raw report %d is %s, cold run's is %s", i, j, r.ID(), c.ID())
			}
		}
		if i == 3 && runs >= coldRuns {
			t.Errorf("run 3 executed %d schedules, cold %d: nothing was resumed", runs, coldRuns)
		}
		if res.Stats.VerifiedAttacks != cold.Stats.VerifiedAttacks {
			t.Errorf("run %d: results diverged from the cold run:\n%s\nvs\n%s",
				i, resultFingerprint(res), resultFingerprint(cold))
		}
	}
}
