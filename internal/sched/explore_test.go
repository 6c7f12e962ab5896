package sched

import (
	"fmt"
	"strings"
	"testing"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
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

// tinyPrograms are IR programs with a known, small schedule tree.
var tinyPrograms = map[string]string{
	// One thread: never a decision point.
	"no-choice": `
global @a = 0
func @main() {
entry:
  store 1, @a
  %x = load @a
  ret %x
}
`,
	// The worker either runs its one instruction before main joins or
	// after main blocks in the join: exactly one binary decision.
	"one-binary-choice": `
func @w() {
entry:
  ret 0
}
func @main() {
entry:
  %t = call @spawn(@w)
  %j = call @join(%t)
  ret 0
}
`,
	// Main blocks joining four workers, so the order the workers run in
	// is a forced choice at every step: 4! schedules, none preempting.
	"forced-fan-out": `
func @w() {
entry:
  ret 0
}
func @main() {
entry:
  %t1 = call @spawn(@w)
  %t2 = call @spawn(@w)
  %t3 = call @spawn(@w)
  %t4 = call @spawn(@w)
  %j1 = call @join(%t1)
  %j2 = call @join(%t2)
  %j3 = call @join(%t3)
  %j4 = call @join(%t4)
  ret 0
}
`,
}

func tinyModule(t *testing.T, name string) *ir.Module {
	t.Helper()
	mod, err := ir.Parse(name+".oir", tinyPrograms[name])
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// traceKey renders an executed decision trace.
func traceKey(ds *DecisionSched) string {
	var b strings.Builder
	for _, d := range ds.Trace {
		fmt.Fprintf(&b, "%d/%d;", d.Chosen, d.Choices)
	}
	return b.String()
}

// ipbRuns explores mod with ExploreIPBRun (no snapshot cache) and
// returns every run's executed trace and preemption count, in run order.
func ipbRuns(t *testing.T, ex *Explorer, mod *ir.Module) ([]string, []int, ExploreResult) {
	t.Helper()
	var traces []string
	var pres []int
	res, err := ex.ExploreIPBRun(
		func() interp.Config { return interp.Config{Module: mod, MaxSteps: 4096} },
		func(m *interp.Machine, ds *DecisionSched) error {
			traces = append(traces, traceKey(ds))
			pres = append(pres, ds.Preemptions)
			return nil
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return traces, pres, res
}

func TestExploreIPBCoversSameTreeAsExplore(t *testing.T) {
	mod := snapCacheModule(t)
	dfsSeen := map[string]int{}
	dfs := &Explorer{MaxRuns: 256, MaxDecisions: 6}
	dfsRes, err := dfs.Explore(func(s interp.Scheduler) error {
		m, err := interp.New(interp.Config{Module: mod, MaxSteps: 4096, Sched: s})
		if err != nil {
			return err
		}
		m.Run()
		dfsSeen[traceKey(s.(*DecisionSched))]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Explore records only the 6 decisions it expands, so each IPB run
	// is named by its first 6 decisions. Past them, every decision must
	// take the non-preemptive default (keep the previous thread, else
	// index 0); that makes the cut lossless.
	ipbSeen := map[string]int{}
	tail := 0
	ipbRes, err := (&Explorer{MaxRuns: 256, MaxDecisions: 6}).ExploreIPBRun(
		func() interp.Config { return interp.Config{Module: mod, MaxSteps: 4096} },
		func(m *interp.Machine, ds *DecisionSched) error {
			n := min(6, len(ds.Trace))
			for i, d := range ds.Trace[n:] {
				tail++
				if def := max(d.SameIdx, 0); d.Chosen != def {
					t.Errorf("run %q: decision %d chose %d past the bound, want the default %d",
						traceKey(ds), 6+i, d.Chosen, def)
				}
			}
			ipbSeen[traceKey(&DecisionSched{Trace: ds.Trace[:n]})]++
			return nil
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if tail == 0 {
		t.Error("no IPB run decided past the bound; the default check is vacuous")
	}
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
	traces, pres, res := ipbRuns(t, &Explorer{MaxRuns: 256, MaxDecisions: 6}, snapCacheModule(t))
	if !res.Exhausted || res.Runs < 4 {
		t.Fatalf("res = %+v, want an exhausted tree of several runs", res)
	}
	if pres[0] != 0 {
		t.Errorf("first run %q has %d preemptions; 0-preemption schedules must run first", traces[0], pres[0])
	}
	// The executed preemption counts must be non-decreasing: the frontier
	// orders by decided-prefix preemptions, and points past the prefix
	// take the non-preemptive default.
	for i := 1; i < len(pres); i++ {
		if pres[i] < pres[i-1] {
			t.Errorf("preemption order violated at run %d: %v", i, pres)
		}
	}
	if pres[len(pres)-1] == 0 {
		t.Error("no run preempted; the order check is vacuous")
	}
}

// A MaxRuns budget smaller than the 0-preemption frontier must stop
// exactly at the budget without claiming exhaustion.
func TestExploreIPBMaxRunsBelowZeroPreemptionFrontier(t *testing.T) {
	traces, pres, res := ipbRuns(t, &Explorer{MaxRuns: 3, MaxDecisions: 8}, tinyModule(t, "forced-fan-out"))
	if res.Runs != 3 || len(traces) != 3 {
		t.Errorf("runs = %d/%d, want 3", res.Runs, len(traces))
	}
	if res.Exhausted {
		t.Error("truncated exploration reported exhausted")
	}
	for i, p := range pres {
		if p != 0 {
			t.Errorf("run %d %q has %d preemptions, want 0", i, traces[i], p)
		}
	}
}

// Tiny programs with no (or trivially few) scheduling choices must
// exhaust, and report having done so, in the minimum number of runs.
func TestExploreIPBExhaustedOnTinyPrograms(t *testing.T) {
	for name, runs := range map[string]int{"no-choice": 1, "one-binary-choice": 2} {
		t.Run(name, func(t *testing.T) {
			_, _, res := ipbRuns(t, &Explorer{MaxRuns: 64}, tinyModule(t, name))
			if !res.Exhausted || res.Runs != runs {
				t.Errorf("res = %+v, want %d exhausted run(s)", res, runs)
			}
		})
	}
}

func TestExploreIPBPropagatesError(t *testing.T) {
	ex := &Explorer{MaxRuns: 10}
	_, err := ex.ExploreIPBRun(
		func() interp.Config { return interp.Config{Module: tinyModule(t, "no-choice")} },
		func(*interp.Machine, *DecisionSched) error { return errTest },
	)
	if err == nil {
		t.Error("want error")
	}
}
