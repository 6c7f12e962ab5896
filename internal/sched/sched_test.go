package sched

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/conanalysis/owl/internal/interp"
)

func ids(ns ...int) []interp.ThreadID {
	out := make([]interp.ThreadID, len(ns))
	for i, n := range ns {
		out[i] = interp.ThreadID(n)
	}
	return out
}

func TestRoundRobinCycles(t *testing.T) {
	s := NewRoundRobin(1)
	runnable := ids(0, 1, 2)
	var got []interp.ThreadID
	for i := 0; i < 6; i++ {
		got = append(got, s.Next(runnable, i))
	}
	want := ids(0, 1, 2, 0, 1, 2)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence %v, want %v", got, want)
		}
	}
}

func TestRoundRobinQuantum(t *testing.T) {
	s := NewRoundRobin(2)
	runnable := ids(0, 1)
	var got []interp.ThreadID
	for i := 0; i < 6; i++ {
		got = append(got, s.Next(runnable, i))
	}
	want := ids(0, 0, 1, 1, 0, 0)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence %v, want %v", got, want)
		}
	}
}

func TestRoundRobinSkipsBlocked(t *testing.T) {
	s := NewRoundRobin(1)
	if got := s.Next(ids(2), 0); got != 2 {
		t.Errorf("got %d", got)
	}
	// Thread 2 ran; next pick from {0, 1} wraps to 0.
	if got := s.Next(ids(0, 1), 1); got != 0 {
		t.Errorf("got %d, want wrap to 0", got)
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	runnable := ids(0, 1, 2, 3)
	a, b := NewRandom(7), NewRandom(7)
	for i := 0; i < 100; i++ {
		if a.Next(runnable, i) != b.Next(runnable, i) {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRandom(8)
	same := true
	a2 := NewRandom(7)
	for i := 0; i < 100; i++ {
		if a2.Next(runnable, i) != c.Next(runnable, i) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
}

// TestRandomCloneContinuesIndependently: a clone draws exactly what the
// original would have drawn from the clone point, and drawing from one
// never moves the other.
func TestRandomCloneContinuesIndependently(t *testing.T) {
	runnable := ids(0, 1, 2, 3)
	ref, s := NewRandom(5), NewRandom(5)
	for i := 0; i < 10; i++ {
		ref.Next(runnable, i)
		s.Next(runnable, i)
	}
	c := s.Clone()
	var fromClone []interp.ThreadID
	for i := 10; i < 60; i++ {
		fromClone = append(fromClone, c.Next(runnable, i))
	}
	for i := 10; i < 60; i++ {
		want := ref.Next(runnable, i)
		if got := s.Next(runnable, i); got != want {
			t.Fatalf("step %d: original drew %d after cloning, want %d", i, got, want)
		}
		if fromClone[i-10] != want {
			t.Fatalf("step %d: clone drew %d, want %d", i, fromClone[i-10], want)
		}
	}
}

func TestRandomCoversAllThreads(t *testing.T) {
	s := NewRandom(3)
	runnable := ids(0, 1, 2)
	seen := map[interp.ThreadID]bool{}
	for i := 0; i < 200; i++ {
		seen[s.Next(runnable, i)] = true
	}
	if len(seen) != 3 {
		t.Errorf("coverage = %v", seen)
	}
}

func TestPCTPrefersOneThreadBetweenDemotions(t *testing.T) {
	s := NewPCT(1, 3, 1000)
	runnable := ids(0, 1, 2)
	first := s.Next(runnable, 0)
	stable := true
	for i := 1; i < 5; i++ {
		if s.Next(runnable, i) != first {
			stable = false
		}
	}
	_ = stable // priorities may demote at random points; just ensure progress
	seen := map[interp.ThreadID]bool{}
	for i := 0; i < 2000; i++ {
		seen[s.Next(runnable, i)] = true
	}
	if !seen[first] {
		t.Error("pct never ran its top thread")
	}
}

func TestReplayFollowsTraceAndFallsBack(t *testing.T) {
	r := NewReplay(ids(2, 0, 1))
	if got := r.Next(ids(0, 1, 2), 0); got != 2 {
		t.Errorf("step0 = %d", got)
	}
	if got := r.Next(ids(0, 1, 2), 1); got != 0 {
		t.Errorf("step1 = %d", got)
	}
	// Recorded thread 1 is not runnable: divergence + fallback.
	if got := r.Next(ids(0, 2), 2); got != 0 {
		t.Errorf("step2 fallback = %d", got)
	}
	if !r.Diverged {
		t.Error("divergence not flagged")
	}
	// Trace exhausted: fallback continues.
	_ = r.Next(ids(0, 2), 3)
}

func TestDecisionSchedRecordsTrace(t *testing.T) {
	s := &DecisionSched{Decisions: []int{1, 0}}
	if got := s.Next(ids(5), 0); got != 5 {
		t.Errorf("single runnable must not consume a decision")
	}
	if got := s.Next(ids(0, 1, 2), 1); got != 1 {
		t.Errorf("decision 1 -> got %d", got)
	}
	if got := s.Next(ids(0, 1), 2); got != 0 {
		t.Errorf("decision 0 -> got %d", got)
	}
	// Past the vector: default to 0.
	if got := s.Next(ids(3, 4), 3); got != 3 {
		t.Errorf("default -> got %d", got)
	}
	if len(s.Trace) != 3 {
		t.Fatalf("trace = %v, want 3 decision points", s.Trace)
	}
	if s.Trace[0].Choices != 3 || s.Trace[0].Chosen != 1 {
		t.Errorf("trace[0] = %+v", s.Trace[0])
	}
}

func TestDecisionSchedClampsOutOfRange(t *testing.T) {
	s := &DecisionSched{Decisions: []int{9}}
	if got := s.Next(ids(0, 1), 0); got != 1 {
		t.Errorf("out-of-range decision should clamp to last, got %d", got)
	}
}

// Regression: negative decisions (a hand-edited or corrupted replay
// vector) used to panic with index-out-of-range; they must clamp to 0.
func TestDecisionSchedClampsNegative(t *testing.T) {
	s := &DecisionSched{Decisions: []int{-1, -99, 1}}
	if got := s.Next(ids(4, 7), 0); got != 4 {
		t.Errorf("negative decision should clamp to first runnable, got %d", got)
	}
	if got := s.Next(ids(2, 3, 5), 1); got != 2 {
		t.Errorf("large negative decision should clamp to first runnable, got %d", got)
	}
	if got := s.Next(ids(0, 1), 2); got != 1 {
		t.Errorf("valid decision after negatives must still apply, got %d", got)
	}
	for i, d := range s.Trace {
		if d.Chosen < 0 || d.Chosen >= d.Choices {
			t.Errorf("trace[%d] records out-of-range choice %+v", i, d)
		}
	}
}

func TestExplorerCoversSmallTree(t *testing.T) {
	// A synthetic 2-level binary decision tree: 2 choices then 2 choices
	// = 4 leaves. The explorer must run each exactly once.
	var seen []string
	ex := &Explorer{MaxRuns: 64, MaxDecisions: 8}
	res, err := ex.Explore(func(s interp.Scheduler) error {
		path := ""
		for i := 0; i < 2; i++ {
			id := s.Next(ids(0, 1), i)
			if id == 0 {
				path += "a"
			} else {
				path += "b"
			}
		}
		seen = append(seen, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted {
		t.Error("small tree not exhausted")
	}
	if res.Runs != 4 {
		t.Errorf("runs = %d, want 4", res.Runs)
	}
	uniq := map[string]bool{}
	for _, p := range seen {
		uniq[p] = true
	}
	for _, want := range []string{"aa", "ab", "ba", "bb"} {
		if !uniq[want] {
			t.Errorf("path %q never explored (seen %v)", want, seen)
		}
	}
}

func TestExplorerHonoursMaxRuns(t *testing.T) {
	ex := &Explorer{MaxRuns: 3, MaxDecisions: 10}
	runs := 0
	res, err := ex.Explore(func(s interp.Scheduler) error {
		runs++
		for i := 0; i < 5; i++ {
			s.Next(ids(0, 1, 2), i)
		}
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

func TestExplorerPropagatesError(t *testing.T) {
	ex := &Explorer{MaxRuns: 10}
	_, err := ex.Explore(func(s interp.Scheduler) error {
		return errTest
	})
	if err == nil {
		t.Error("want error")
	}
}

var errTest = errTestType{}

type errTestType struct{}

func (errTestType) Error() string { return "test error" }

// TestPlanAdvanceMatchesNext pins the contract of a scheduler that
// commits a window of picks at once: committing k picks must leave it
// exactly as k Next calls would. Its name is from the planned window
// (Plan/Advance), which is gone; the window left is the held one, in
// the hold-skip subtest.
func TestPlanAdvanceMatchesNext(t *testing.T) {
	t.Run("hold-skip", testHoldSkip)
}

// testHoldSkip is the HoldingScheduler contract: when Hold reports a
// thread until some step, every Next call up to that step picks it, and
// Skip(k) leaves the scheduler exactly as k Next calls would, with no
// pick made. PCT holds until its next demotion; a bounded decision
// scheduler, alone or behind the snapshot cache's wrapper, holds its
// last thread past its vector and its recording bound, and any thread
// that is the only one runnable. Where a pick is not fixed Hold must
// decline.
func testHoldSkip(t *testing.T) {
	sets := [][]interp.ThreadID{ids(0), ids(0, 1), ids(1, 3, 7), ids(0, 2, 4, 5, 9)}
	type mk struct {
		name string
		// holds says whether Hold must succeed after the warm-up over a
		// set of several threads, lone whether it must over one thread;
		// never that it must not over several.
		holds, lone, never bool
		new                func() interp.HoldingScheduler
	}
	var makers []mk
	for seed := uint64(1); seed <= 4; seed++ {
		for _, d := range []int{1, 2, 4} {
			seed, d := seed, d
			makers = append(makers, mk{fmt.Sprintf("pct-s%d-d%d", seed, d), d == 1, false, false,
				func() interp.HoldingScheduler { return NewPCT(seed, d, 12) }})
		}
	}
	for _, limit := range []int{1, 2, 5} {
		limit := limit
		makers = append(makers,
			mk{fmt.Sprintf("dfs-limit%d", limit), limit <= 2, true, false,
				func() interp.HoldingScheduler { return &DecisionSched{Decisions: []int{1, 0}, limit: limit} }},
			mk{fmt.Sprintf("snap-dfs-limit%d", limit), limit <= 2, true, false,
				func() interp.HoldingScheduler {
					return &snapSched{ds: &DecisionSched{Decisions: []int{1, 0}, limit: limit}, maxDepth: 2, stores: storeRunBudget}
				}})
	}
	makers = append(makers, mk{"dfs-unbounded", false, true, true,
		func() interp.HoldingScheduler { return &DecisionSched{Decisions: []int{1}} }})
	for _, m := range makers {
		for _, runnable := range sets {
			const warm = 3
			probe := m.new()
			for w := 0; w < warm; w++ {
				probe.Next(runnable, w)
			}
			tid, until, ok := probe.Hold(runnable, warm)
			switch {
			case len(runnable) == 1 && m.lone && !ok:
				t.Fatalf("%s: Hold declined a lone runnable thread", m.name)
			case len(runnable) > 1 && m.holds && !ok:
				t.Fatalf("%s runnable=%v: Hold declined past the warm-up", m.name, runnable)
			case len(runnable) > 1 && m.never && ok:
				t.Fatalf("%s runnable=%v: an unbounded decision scheduler held", m.name, runnable)
			case !ok:
				continue
			}
			if until <= warm {
				t.Fatalf("%s runnable=%v: Hold until step %d from step %d", m.name, runnable, until, warm)
			}
			for k := 0; k <= min(until-warm, 9); k++ {
				oracle, subject := m.new(), m.new()
				for w := 0; w < warm; w++ {
					oracle.Next(runnable, w)
					subject.Next(runnable, w)
				}
				for i := 0; i < k; i++ {
					if got := oracle.Next(runnable, warm+i); got != tid {
						t.Fatalf("%s runnable=%v: pick %d of the hold is %d, Hold said %d until step %d",
							m.name, runnable, i, got, tid, until)
					}
				}
				subject.Skip(runnable, warm, k)
				if !reflect.DeepEqual(oracle, subject) {
					t.Fatalf("%s runnable=%v k=%d: Skip left %+v, %d Next calls %+v", m.name, runnable, k, subject, k, oracle)
				}
			}
		}
	}
	// Hold declines where Next would change state: an undrawn thread, a
	// demotion at the step itself; a decision scheduler still inside
	// its vector or its recording bound.
	p := &PCT{r: newRNG(2), demoteAt: []int{5}}
	p.Next(ids(1, 3), 0)
	if _, _, ok := p.Hold(ids(1, 3, 7), 1); ok {
		t.Fatal("PCT held over an undrawn thread")
	}
	if _, until, ok := p.Hold(ids(1, 3), 1); !ok || until != 5 {
		t.Fatalf("PCT Hold from step 1 = until %d (ok %v), want until the step-5 demotion", until, ok)
	}
	if _, _, ok := p.Hold(ids(1, 3), 5); ok {
		t.Fatal("PCT held at its demotion step")
	}
	ds := &DecisionSched{Decisions: []int{1, 1}, limit: 3}
	for step := 0; step < 3; step++ {
		if _, _, ok := ds.Hold(ids(0, 1), step); ok {
			t.Fatalf("decision scheduler held at decision %d, inside its vector or bound", step)
		}
		ds.Next(ids(0, 1), step)
	}
	if tid, _, ok := ds.Hold(ids(0, 1), 3); !ok || tid != 1 {
		t.Fatalf("decision scheduler past its bound: Hold = %d (ok %v), want its last thread 1", tid, ok)
	}
	ss := &snapSched{ds: &DecisionSched{Decisions: nil, limit: 1}, maxDepth: 4}
	ss.ds.Next(ids(0, 1), 0)
	if _, _, ok := ss.Hold(ids(0, 1), 1); ok {
		t.Fatal("the snapshot wrapper held where its Next would store a boundary")
	}
}
