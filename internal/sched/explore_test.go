package sched

import (
	"fmt"
	"testing"

	"github.com/conanalysis/owl/internal/interp"
)

func TestDecisionSchedCountsPreemptions(t *testing.T) {
	// Thread 0 runs, then while 0 is still runnable the vector picks 1
	// (preemption), keeps 1 (no preemption), then is forced off 1 when it
	// blocks (no preemption).
	s := &DecisionSched{Decisions: []int{1, 1, 0}}
	if got := s.Next(ids(0), 0); got != 0 {
		t.Fatalf("step0 = %d", got)
	}
	if got := s.Next(ids(0, 1), 1); got != 1 {
		t.Fatalf("step1 = %d", got)
	}
	if got := s.Next(ids(0, 1), 2); got != 1 {
		t.Fatalf("step2 = %d", got)
	}
	// Thread 1 blocked: only 0 and 2 runnable; switching is forced.
	if got := s.Next(ids(0, 2), 3); got != 0 {
		t.Fatalf("step3 = %d", got)
	}
	if s.Preemptions != 1 {
		t.Errorf("Preemptions = %d, want 1", s.Preemptions)
	}
	wantSame := []int32{0, 1, -1}
	for i, d := range s.Trace {
		if d.SameIdx != wantSame[i] {
			t.Errorf("trace[%d].SameIdx = %d, want %d", i, d.SameIdx, wantSame[i])
		}
	}
}

// driveTree simulates a fixed synthetic decision tree: depth decision
// points, each over the same runnable set.
func driveTree(s interp.Scheduler, runnable []interp.ThreadID, depth int) string {
	path := ""
	for i := 0; i < depth; i++ {
		path += fmt.Sprintf("%d", s.Next(runnable, i))
	}
	return path
}

func TestExploreIPBCoversSameTreeAsExplore(t *testing.T) {
	collect := func(explore func(*Explorer, func(interp.Scheduler) error) (ExploreResult, error)) (map[string]int, ExploreResult) {
		seen := map[string]int{}
		ex := &Explorer{MaxRuns: 256, MaxDecisions: 8}
		res, err := explore(ex, func(s interp.Scheduler) error {
			seen[driveTree(s, ids(0, 1, 2), 3)]++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return seen, res
	}
	dfsSeen, dfsRes := collect((*Explorer).Explore)
	ipbSeen, ipbRes := collect((*Explorer).ExploreIPB)
	if !dfsRes.Exhausted || !ipbRes.Exhausted {
		t.Fatalf("exhausted: dfs=%v ipb=%v", dfsRes.Exhausted, ipbRes.Exhausted)
	}
	if dfsRes.Runs != ipbRes.Runs {
		t.Errorf("runs: dfs=%d ipb=%d", dfsRes.Runs, ipbRes.Runs)
	}
	if len(dfsSeen) != len(ipbSeen) {
		t.Fatalf("distinct schedules: dfs=%d ipb=%d", len(dfsSeen), len(ipbSeen))
	}
	for p, n := range dfsSeen {
		if ipbSeen[p] != n {
			t.Errorf("schedule %q: dfs ran %d, ipb ran %d", p, n, ipbSeen[p])
		}
	}
}

func TestExploreIPBRunsZeroPreemptionSchedulesFirst(t *testing.T) {
	// Two always-runnable threads, three decision points. A schedule's
	// preemptions = switches away from the previously chosen (and still
	// runnable) thread; the first decision is never a preemption. The
	// 0-preemption schedules are exactly 000 and 111.
	var order []string
	var pres []int
	ex := &Explorer{MaxRuns: 64, MaxDecisions: 8}
	res, err := ex.ExploreIPB(func(s interp.Scheduler) error {
		order = append(order, driveTree(s, ids(0, 1), 3))
		pres = append(pres, s.(*DecisionSched).Preemptions)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted || res.Runs != 8 {
		t.Fatalf("res = %+v, want 8 exhausted runs", res)
	}
	zeroPre := map[string]bool{"000": true, "111": true}
	for i, p := range order[:2] {
		if !zeroPre[p] {
			t.Errorf("run %d = %q (%d preemptions); 0-preemption schedules must run first (order %v)",
				i, p, pres[i], order)
		}
	}
	// The executed preemption counts must be non-decreasing: the frontier
	// orders by decided-prefix preemptions and every decision point here
	// is decided within the depth bound.
	for i := 1; i < len(pres); i++ {
		if pres[i] < pres[i-1] {
			t.Errorf("preemption order violated at run %d: %v", i, pres)
		}
	}
}

// Satellite regression: a MaxRuns budget smaller than the 0-preemption
// frontier must stop exactly at the budget without claiming exhaustion.
func TestExploreIPBMaxRunsBelowZeroPreemptionFrontier(t *testing.T) {
	// A single 5-way decision point with no prior running thread: all 5
	// schedules carry 0 preemptions.
	runs := 0
	ex := &Explorer{MaxRuns: 3, MaxDecisions: 8}
	res, err := ex.ExploreIPB(func(s interp.Scheduler) error {
		runs++
		s.Next(ids(0, 1, 2, 3, 4), 0)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 3 || runs != 3 {
		t.Errorf("runs = %d/%d, want 3", res.Runs, runs)
	}
	if res.Exhausted {
		t.Error("truncated exploration reported exhausted")
	}
}

// Satellite regression: tiny programs with no (or trivially few)
// scheduling choices must exhaust, and report having done so, in the
// minimum number of runs.
func TestExploreIPBExhaustedOnTinyPrograms(t *testing.T) {
	t.Run("no-choice", func(t *testing.T) {
		ex := &Explorer{MaxRuns: 64}
		res, err := ex.ExploreIPB(func(s interp.Scheduler) error {
			for i := 0; i < 4; i++ {
				s.Next(ids(7), i) // single-threaded: never a decision point
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exhausted || res.Runs != 1 {
			t.Errorf("res = %+v, want 1 exhausted run", res)
		}
	})
	t.Run("one-binary-choice", func(t *testing.T) {
		ex := &Explorer{MaxRuns: 64}
		res, err := ex.ExploreIPB(func(s interp.Scheduler) error {
			s.Next(ids(0, 1), 0)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exhausted || res.Runs != 2 {
			t.Errorf("res = %+v, want 2 exhausted runs", res)
		}
	})
}

func TestExploreIPBPropagatesError(t *testing.T) {
	ex := &Explorer{MaxRuns: 10}
	_, err := ex.ExploreIPB(func(s interp.Scheduler) error { return errTest })
	if err == nil {
		t.Error("want error")
	}
}
