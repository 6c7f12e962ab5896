package sched

import (
	"fmt"
	"testing"
)

// scriptedCoverage deterministically fabricates per-job coverage from the
// job's identity (strategy + seed or decision vector), so replaying the
// same schedule "observes" the same pairs — the property resume leans on.
func scriptedCoverage(pt *pairTable, j *Job) {
	switch j.Strategy {
	case StrategyDFS:
		ds := j.Sched.(*DecisionSched)
		pt.observe(j, fmt.Sprintf("dfs-%v", ds.Decisions))
	default:
		pt.observe(j, fmt.Sprintf("%s-%d", j.Strategy, j.Seed))
	}
}

// TestExploreStateResumeEarlyStops is the resume contract: a second
// exploration of an already-absorbed program sees nothing new, trips the
// saturation early stop, and spends strictly fewer runs than the first.
func TestExploreStateResumeEarlyStops(t *testing.T) {
	pt := newPairTable()
	state := NewExploreState()
	shared := storedReport(0, 1, 1)
	runner := func(jobs []*Job) error {
		for _, j := range jobs {
			scriptedCoverage(pt, j)
			j.ReportIDs = []string{shared.ID}
		}
		return nil
	}

	first := NewEngine(EngineConfig{Budget: 24, RoundRuns: 6, Saturation: 2})
	fres, err := first.Explore(runner)
	if err != nil {
		t.Fatal(err)
	}
	state.Absorb(first, []StableReport{shared})
	if !state.Warm() || state.Explorations() != 1 {
		t.Fatalf("state not warm after absorb: explorations=%d", state.Explorations())
	}
	if state.Pairs() != fres.CoveragePairs {
		t.Errorf("state pairs = %d, want the first run's %d", state.Pairs(), fres.CoveragePairs)
	}
	if state.SeenReports() != 1 {
		t.Errorf("seen reports = %d, want 1", state.SeenReports())
	}

	second := NewEngine(EngineConfig{Budget: 24, RoundRuns: 6, Saturation: 2, Resume: state})
	sres, err := second.Explore(runner)
	if err != nil {
		t.Fatal(err)
	}
	if !sres.EarlyStop {
		t.Error("resumed exploration did not early-stop on saturation")
	}
	if sres.Runs >= fres.Runs {
		t.Errorf("resumed runs = %d, want strictly fewer than first (%d)", sres.Runs, fres.Runs)
	}
	// Saturation 2 at RoundRuns 6: a fully dry resume spends exactly 12.
	if sres.Runs != 12 {
		t.Errorf("resumed runs = %d, want 12 (two dry rounds)", sres.Runs)
	}
	state.Absorb(second, nil)
	if state.Pairs() != fres.CoveragePairs {
		t.Errorf("absorbing a dry resume grew the state: %d -> %d pairs",
			fres.CoveragePairs, state.Pairs())
	}
	if state.Explorations() != 2 {
		t.Errorf("explorations = %d, want 2", state.Explorations())
	}
}

// TestExploreStateResumeIsDeterministic pins that two resumes from the
// same state spend identical budgets — the cross-submission determinism
// the serve gate asserts end to end.
func TestExploreStateResumeIsDeterministic(t *testing.T) {
	pt := newPairTable()
	state := NewExploreState()
	runner := func(jobs []*Job) error {
		for _, j := range jobs {
			scriptedCoverage(pt, j)
		}
		return nil
	}
	first := NewEngine(EngineConfig{Budget: 30, RoundRuns: 6})
	if _, err := first.Explore(runner); err != nil {
		t.Fatal(err)
	}
	state.Absorb(first, nil)

	var runs [2]int
	for i := range runs {
		e := NewEngine(EngineConfig{Budget: 30, RoundRuns: 6, Resume: state})
		res, err := e.Explore(runner)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = res.Runs
		state.Absorb(e, nil)
	}
	if runs[0] != runs[1] {
		t.Errorf("resume runs differ across repeats: %d vs %d", runs[0], runs[1])
	}
}

// TestExploreStateNilSafety: a nil state is inert everywhere it can
// appear.
func TestExploreStateNilSafety(t *testing.T) {
	var s *ExploreState
	if s.Warm() || s.Pairs() != 0 || s.SeenReports() != 0 || s.Explorations() != 0 {
		t.Error("nil state not inert")
	}
	s.Absorb(nil, nil) // must not panic
}
