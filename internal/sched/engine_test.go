package sched

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/conanalysis/owl/internal/ir"
)

// pairTable hands out stable covKey identities by name, so a scripted
// runner can fabricate deterministic per-job coverage without running a
// machine.
type pairTable struct {
	keys map[string]covKey
}

func newPairTable() *pairTable { return &pairTable{keys: map[string]covKey{}} }

func (pt *pairTable) key(name string) covKey {
	k, ok := pt.keys[name]
	if !ok {
		k = covKey{from: &ir.Instr{}, to: &ir.Instr{}}
		pt.keys[name] = k
	}
	return k
}

func (pt *pairTable) observe(j *Job, names ...string) {
	for _, n := range names {
		j.Cov.pairs[pt.key(n)] = struct{}{}
	}
}

func TestEngineRespectsBudgetWhenNeverSaturating(t *testing.T) {
	pt := newPairTable()
	n := 0
	eng := NewEngine(EngineConfig{Budget: 20, RoundRuns: 6})
	res, err := eng.Explore(func(jobs []*Job) error {
		for _, j := range jobs {
			n++
			pt.observe(j, fmt.Sprintf("fresh-%d", n)) // every run finds something new
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 20 || n != 20 {
		t.Errorf("runs = %d/%d, want exactly the budget (20)", res.Runs, n)
	}
	if res.EarlyStop {
		t.Error("EarlyStop with a never-saturating runner")
	}
	if res.Rounds != 4 { // 6+6+6+2
		t.Errorf("rounds = %d, want 4", res.Rounds)
	}
	if res.CoveragePairs != 20 {
		t.Errorf("coverage = %d, want 20", res.CoveragePairs)
	}
}

func TestEngineEarlyStopsAfterSaturationRounds(t *testing.T) {
	eng := NewEngine(EngineConfig{Budget: 60, RoundRuns: 6, Saturation: 2})
	res, err := eng.Explore(func(jobs []*Job) error { return nil }) // nothing, ever
	if err != nil {
		t.Fatal(err)
	}
	if !res.EarlyStop {
		t.Error("no early stop despite two dry rounds")
	}
	if res.Rounds != 2 || res.Runs != 12 {
		t.Errorf("rounds/runs = %d/%d, want 2/12", res.Rounds, res.Runs)
	}
	if res.CoveragePairs != 0 {
		t.Errorf("coverage = %d, want 0", res.CoveragePairs)
	}
}

func TestEngineReallocatesTowardProductiveStrategy(t *testing.T) {
	pt := newPairTable()
	n := 0
	eng := NewEngine(EngineConfig{Budget: 12, RoundRuns: 6})
	res, err := eng.Explore(func(jobs []*Job) error {
		for _, j := range jobs {
			if j.Strategy == StrategyPCT { // only PCT finds new interleavings
				n++
				pt.observe(j, fmt.Sprintf("pct-%d", n))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RoundLog) != 2 {
		t.Fatalf("round log = %+v, want 2 rounds", res.RoundLog)
	}
	// Round 1 probes every strategy; round 2 must steer (nearly) everything
	// to the one that produced.
	r2 := res.RoundLog[1]
	if r2.Alloc[StrategyPCT] != 6 {
		t.Errorf("round 2 alloc = %v, want all 6 runs on pct", r2.Alloc)
	}
	if res.Strategies[StrategyPCT].NewCoverage == 0 {
		t.Error("pct credited with no coverage")
	}
	if res.Strategies[StrategyRandom].NewCoverage != 0 {
		t.Errorf("random credited with %d pairs it never observed",
			res.Strategies[StrategyRandom].NewCoverage)
	}
}

func TestEngineCreditsFirstObserverInJobOrder(t *testing.T) {
	pt := newPairTable()
	eng := NewEngine(EngineConfig{Budget: 6, RoundRuns: 6})
	res, err := eng.Explore(func(jobs []*Job) error {
		for _, j := range jobs {
			pt.observe(j, "shared") // every job sees the same pair
			j.ReportIDs = []string{"race-1"}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CoveragePairs != 1 {
		t.Errorf("coverage = %d, want the single deduped pair", res.CoveragePairs)
	}
	// Jobs are built random-first, so the first random job gets the credit.
	if got := res.Strategies[StrategyRandom].NewCoverage; got != 1 {
		t.Errorf("random NewCoverage = %d, want 1", got)
	}
	if got := res.Strategies[StrategyRandom].NewReports; got != 1 {
		t.Errorf("random NewReports = %d, want 1", got)
	}
	for _, s := range []Strategy{StrategyPCT, StrategyDFS} {
		st := res.Strategies[s]
		if st.NewCoverage != 0 || st.NewReports != 0 {
			t.Errorf("%v credited %+v; first-observer credit must go to job order", s, st)
		}
	}
}

// scriptedRunner simulates a workload as a pure function of each job: the
// coverage and reports a job yields depend only on (Strategy, Seed, DFS
// path), never on execution order — exactly the property real machine
// runs have. DFS schedulers are driven through a depth-2 binary tree.
func scriptedRunner(pt *pairTable, reverse bool) func(jobs []*Job) error {
	return func(jobs []*Job) error {
		order := make([]*Job, len(jobs))
		copy(order, jobs)
		if reverse { // simulate an adversarial parallel completion order
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, j := range order {
			switch j.Strategy {
			case StrategyDFS:
				path := driveTree(j.Sched, ids(0, 1), 2)
				pt.observe(j, "dfs-"+path)
				if path == "10" {
					j.ReportIDs = []string{"race-buried"}
				}
			case StrategyRandom:
				pt.observe(j, fmt.Sprintf("rnd-%d", j.Seed%4))
			case StrategyPCT:
				pt.observe(j, fmt.Sprintf("pct-%d", j.Seed%2))
			}
		}
		return nil
	}
}

func TestEngineDeterministicAcrossRunnerExecutionOrder(t *testing.T) {
	pt := newPairTable() // shared table: identical pair identities for both runs
	run := func(reverse bool) (*EngineResult, []string) {
		var seq []string
		eng := NewEngine(EngineConfig{Budget: 24, RoundRuns: 6, Seed: 42})
		inner := scriptedRunner(pt, reverse)
		res, err := eng.Explore(func(jobs []*Job) error {
			for _, j := range jobs {
				seq = append(seq, fmt.Sprintf("%v:%d", j.Strategy, j.Seed))
			}
			return inner(jobs)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, seq
	}
	resA, seqA := run(false)
	resB, seqB := run(true)
	if !reflect.DeepEqual(seqA, seqB) {
		t.Errorf("job sequences diverged:\n fwd: %v\n rev: %v", seqA, seqB)
	}
	if !reflect.DeepEqual(resA, resB) {
		t.Errorf("results diverged:\n fwd: %+v\n rev: %+v", resA, resB)
	}
}

func TestEngineDFSExhaustsBoundedTree(t *testing.T) {
	pt := newPairTable()
	eng := NewEngine(EngineConfig{Budget: 60, RoundRuns: 6, Saturation: 2})
	res, err := eng.Explore(func(jobs []*Job) error {
		for _, j := range jobs {
			if j.Strategy == StrategyDFS { // only new DFS schedules produce
				pt.observe(j, "dfs-"+driveTree(j.Sched, ids(0, 1), 2))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.DFSExhausted {
		t.Error("depth-2 binary tree not exhausted")
	}
	if got := res.Strategies[StrategyDFS].Runs; got != 4 {
		t.Errorf("dfs runs = %d, want exactly the 4 distinct schedules", got)
	}
	if res.Strategies[StrategyDFS].NewCoverage != 4 {
		t.Errorf("dfs coverage = %d, want 4", res.Strategies[StrategyDFS].NewCoverage)
	}
	if !res.EarlyStop {
		t.Error("exploration should saturate and stop early after DFS exhausts")
	}
}

func TestEngineRandomSeedsExtendFixedSequence(t *testing.T) {
	// With base seed 0 the random arm replays the fixed-mode seeds
	// 1,2,3,...: coverage mode at equal budget can only add schedules,
	// never lose the baseline ones.
	var got []uint64
	eng := NewEngine(EngineConfig{Budget: 6, RoundRuns: 6})
	_, err := eng.Explore(func(jobs []*Job) error {
		for _, j := range jobs {
			if j.Strategy == StrategyRandom {
				got = append(got, j.Seed)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("round 1 allocated no random runs")
	}
	for i, s := range got {
		if s != uint64(i+1) {
			t.Fatalf("random seeds = %v, want 1,2,3,...", got)
		}
	}
}

func TestEngineZeroBudgetIsANoOp(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	called := false
	res, err := eng.Explore(func(jobs []*Job) error { called = true; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if called || res.Runs != 0 {
		t.Errorf("zero budget ran jobs: called=%v runs=%d", called, res.Runs)
	}
}

func TestCoverageMergeCountsOnlyFresh(t *testing.T) {
	pt := newPairTable()
	cov := NewCoverage()
	a := cov.NewRun()
	a.pairs[pt.key("x")] = struct{}{}
	a.pairs[pt.key("y")] = struct{}{}
	if got := cov.Merge(a); got != 2 {
		t.Errorf("first merge = %d, want 2", got)
	}
	b := cov.NewRun()
	b.pairs[pt.key("y")] = struct{}{}
	b.pairs[pt.key("z")] = struct{}{}
	if got := cov.Merge(b); got != 1 {
		t.Errorf("overlapping merge = %d, want 1", got)
	}
	if cov.Pairs() != 3 {
		t.Errorf("pairs = %d, want 3", cov.Pairs())
	}
	if a.Len() != 2 || b.Len() != 2 {
		t.Errorf("run lens = %d/%d, want 2/2", a.Len(), b.Len())
	}
}

// TestRunCoverageSpin is RunCoverage's interp.SpinObserver contract: a
// period is quiet exactly when its switches add no pair, and SkipSpin(k)
// followed by one more delivery of a quiet period leaves the recorder as
// k+1 deliveries do. A recorder recycled after its merge starts empty.
func TestRunCoverageSpin(t *testing.T) {
	a, b, c := &ir.Instr{}, &ir.Instr{}, &ir.Instr{}
	period := func(rc *RunCoverage) {
		rc.OnSwitch(nil, 0, 1, a, b)
		rc.OnSwitch(nil, 1, 0, b, a)
	}
	cov := NewCoverage()
	rc := cov.NewRun()
	rc.MarkSpin()
	if !rc.SpinQuiet() {
		t.Fatal("a period with no switch is loud")
	}
	period(rc)
	if rc.SpinQuiet() {
		t.Fatal("a period that added two pairs is quiet")
	}
	rc.MarkSpin()
	period(rc)
	if !rc.SpinQuiet() {
		t.Fatal("a repeated period is loud")
	}
	ref := cov.NewRun()
	for range 5 {
		period(ref)
	}
	rc.SkipSpin(3)
	period(rc)
	if !samePairSet(rc, ref) {
		t.Fatalf("SkipSpin(3) + one period left %d pairs, 5 periods %d", rc.Len(), ref.Len())
	}
	rc.MarkSpin()
	rc.OnSwitch(nil, 0, 1, a, c)
	if rc.SpinQuiet() {
		t.Fatal("a period with a new pair after quiet ones is quiet")
	}
	if got := cov.Merge(rc); got != 3 {
		t.Fatalf("merge = %d new pairs, want 3", got)
	}
	cov.recycle(rc)
	if again := cov.NewRun(); again.Len() != 0 {
		t.Fatalf("a recycled recorder starts with %d pairs", again.Len())
	}
}

// samePairSet reports whether two recorders hold the same pairs.
func samePairSet(a, b *RunCoverage) bool {
	return reflect.DeepEqual(a.pairs, b.pairs)
}
