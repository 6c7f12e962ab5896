package sched

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/conanalysis/owl/internal/atomicity"
	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/race"
)

// snapCacheProgram has racy globals, a mutex, io_delay windows (so
// runnable sets shrink and grow, exercising both dense and sparse
// decision regions), and output — everything a resumed run must get
// byte-identical to a replayed one.
const snapCacheProgram = `
global @a = 0
global @b = 0
global @mu = 0

func @worker(%d) {
entry:
  call @io_delay(%d)
  %x = load @a
  store %x, @b
  call @mutex_lock(@mu)
  %y = load @b
  store %y, @a
  call @mutex_unlock(@mu)
  call @print(%y)
  store 7, @a
  ret %x
}

func @main() {
entry:
  store 1, @a
  %t1 = call @spawn(@worker, 1)
  %t2 = call @spawn(@worker, 3)
  %m0 = load @a
  store %m0, @b
  call @yield()
  %m1 = load @b
  call @print(%m1)
  %j1 = call @join(%t1)
  %j2 = call @join(%t2)
  %s = load @a
  call @print(%s)
  ret 0
}
`

func snapCacheModule(t *testing.T) *ir.Module {
	t.Helper()
	mod, err := ir.Parse("snapcache_test.oir", snapCacheProgram)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// runSignature renders everything observable about one completed run:
// machine outcome, race and atomicity reports (with dynamic counts and
// stats), the run's coverage pair count, and the executed decision
// trace. Two explorations are equivalent iff their run-signature
// sequences match.
func runSignature(m *interp.Machine, ds *DecisionSched, rd *race.Detector, ad *atomicity.Detector, cov *RunCoverage) string {
	res := m.Result()
	var b strings.Builder
	fmt.Fprintf(&b, "exit=%d steps=%d stall=%d out=%q faults=%d",
		res.ExitCode, res.Steps, res.Stall, strings.Join(res.Output, "|"), len(res.Faults))
	var ids []string
	for _, r := range rd.Reports() {
		ids = append(ids, fmt.Sprintf("%s x%d", r.ID(), r.Count))
	}
	sort.Strings(ids)
	fmt.Fprintf(&b, " races=[%s] rstats=%+v", strings.Join(ids, ","), rd.Stats())
	ids = ids[:0]
	for _, r := range ad.Reports() {
		ids = append(ids, fmt.Sprintf("%s x%d", r.ID(), r.Count))
	}
	sort.Strings(ids)
	fmt.Fprintf(&b, " atom=[%s] cov=%d pre=%d trace=", strings.Join(ids, ","), cov.Len(), ds.Preemptions)
	for _, d := range ds.Trace {
		fmt.Fprintf(&b, "%d/%d;", d.Chosen, d.Choices)
	}
	return b.String()
}

// exploreSignatures runs the bounded IPB exploration over the test
// program with fresh detectors per run, optionally through a snapshot
// cache, and returns the ordered run signatures.
func exploreSignatures(t *testing.T, mod *ir.Module, snap *SnapCache, maxRuns, maxDec int) []string {
	t.Helper()
	var sigs []string
	var rd *race.Detector
	var ad *atomicity.Detector
	var cov *RunCoverage
	gc := NewCoverage()
	ex := &Explorer{MaxRuns: maxRuns, MaxDecisions: maxDec, Snap: snap}
	res, err := ex.ExploreIPBRun(
		func() interp.Config {
			rd, ad, cov = race.NewDetector(), atomicity.NewDetector(), gc.NewRun()
			return interp.Config{
				Module: mod, MaxSteps: 4096,
				Observers:       []interp.Observer{rd, ad},
				SwitchObservers: []interp.SwitchObserver{cov},
			}
		},
		func(m *interp.Machine, ds *DecisionSched) error {
			sigs = append(sigs, runSignature(m, ds, rd, ad, cov))
			gc.Merge(cov)
			return nil
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != len(sigs) {
		t.Fatalf("res.Runs=%d, signatures=%d", res.Runs, len(sigs))
	}
	sigs = append(sigs, fmt.Sprintf("total: runs=%d exhausted=%v pairs=%d", res.Runs, res.Exhausted, gc.Pairs()))
	return sigs
}

// TestExploreIPBRunSnapshotsPreserveResults is the sched-layer half of
// the determinism gate: with the snapshot cache on, every run resumed
// from a cached ancestor must be byte-identical — outcome, race and
// atomicity reports with counts and hot-path stats, coverage, executed
// trace — to the same run replayed from step 0.
func TestExploreIPBRunSnapshotsPreserveResults(t *testing.T) {
	mod := snapCacheModule(t)
	base := exploreSignatures(t, mod, nil, 64, 6)

	snap := NewSnapCache(256)
	got := exploreSignatures(t, mod, snap, 64, 6)

	if len(base) != len(got) {
		t.Fatalf("run counts differ: off=%d on=%d", len(base), len(got))
	}
	for i := range base {
		if base[i] != got[i] {
			t.Errorf("run %d diverged with snapshots on:\noff: %s\non:  %s", i, base[i], got[i])
		}
	}
	st := snap.Stats()
	if st.Hits == 0 {
		t.Error("snapshot cache was never hit; prefix sharing is inert")
	}
	if st.StepsSaved == 0 {
		t.Error("no steps saved despite cache hits")
	}
	if st.Stores == 0 {
		t.Error("no snapshots stored")
	}
	t.Logf("snap stats: %+v", st)
}

// TestExploreIPBRunMatchesExploreIPB checks the driver refactor itself:
// the cache-aware entry point must pop and expand exactly the schedules
// ExploreIPB does.
func TestExploreIPBRunMatchesExploreIPB(t *testing.T) {
	mod := snapCacheModule(t)
	var ipbTraces []string
	ex := &Explorer{MaxRuns: 64, MaxDecisions: 6}
	ipbRes, err := ex.ExploreIPB(func(s interp.Scheduler) error {
		m, err := interp.New(interp.Config{Module: mod, MaxSteps: 4096, Sched: s})
		if err != nil {
			return err
		}
		m.Run()
		ds := s.(*DecisionSched)
		ipbTraces = append(ipbTraces, fmt.Sprintf("%v->%d", ds.Decisions, len(ds.Trace)))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var runTraces []string
	ex2 := &Explorer{MaxRuns: 64, MaxDecisions: 6, Snap: NewSnapCache(64)}
	runRes, err := ex2.ExploreIPBRun(
		func() interp.Config { return interp.Config{Module: mod, MaxSteps: 4096} },
		func(m *interp.Machine, ds *DecisionSched) error {
			runTraces = append(runTraces, fmt.Sprintf("%v->%d", ds.Decisions, len(ds.Trace)))
			return nil
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if ipbRes != runRes {
		t.Errorf("results differ: ipb=%+v run=%+v", ipbRes, runRes)
	}
	if len(ipbTraces) != len(runTraces) {
		t.Fatalf("run counts differ: %d vs %d", len(ipbTraces), len(runTraces))
	}
	for i := range ipbTraces {
		if ipbTraces[i] != runTraces[i] {
			t.Errorf("run %d: ipb %s, cache-aware %s", i, ipbTraces[i], runTraces[i])
		}
	}
}

// TestSnapCacheEvictsLRUWithinBudget pins the entry-budget semantics: the entry count never exceeds the budget, overflow evicts,
// and a tiny cache still preserves results (it just shares less).
func TestSnapCacheEvictsLRUWithinBudget(t *testing.T) {
	mod := snapCacheModule(t)
	base := exploreSignatures(t, mod, nil, 64, 6)
	snap := NewSnapCache(3)
	got := exploreSignatures(t, mod, snap, 64, 6)
	for i := range base {
		if base[i] != got[i] {
			t.Fatalf("run %d diverged under a size-3 cache:\noff: %s\non:  %s", i, base[i], got[i])
		}
	}
	if n := snap.Len(); n > 3 {
		t.Errorf("cache holds %d entries, budget is 3", n)
	}
	st := snap.Stats()
	if st.Evictions == 0 {
		t.Errorf("expected evictions from a size-3 cache, stats %+v", st)
	}
}

// TestRunMachineFallsBackWithoutDecisionSched: non-systematic schedulers
// (random, PCT) can't be keyed by decision prefixes; RunMachine must run
// them from scratch and store nothing.
func TestRunMachineFallsBackWithoutDecisionSched(t *testing.T) {
	mod := snapCacheModule(t)
	snap := NewSnapCache(16)
	m, err := snap.RunMachine(interp.Config{Module: mod, MaxSteps: 4096, Sched: NewRandom(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res := m.Result(); res.Stall != interp.StallDone {
		t.Fatalf("random run did not finish: %+v", res)
	}
	if st := snap.Stats(); st.Stores != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("fallback run touched the cache: %+v", st)
	}
	// A nil cache is the disabled configuration and must also run fine.
	var off *SnapCache
	m, err = off.RunMachine(interp.Config{Module: mod, MaxSteps: 4096, Sched: &DecisionSched{}})
	if err != nil {
		t.Fatal(err)
	}
	if res := m.Result(); res.Stall != interp.StallDone {
		t.Fatalf("nil-cache run did not finish: %+v", res)
	}
}

// TestRunMachineRejectsObserverMismatch: sharing one cache across runs
// with different observer compositions would silently corrupt state;
// RunMachine must surface it instead.
func TestRunMachineRejectsObserverMismatch(t *testing.T) {
	mod := snapCacheModule(t)
	snap := NewSnapCache(16)
	run := func(obs []interp.Observer, dec []int) error {
		_, err := snap.RunMachine(interp.Config{
			Module: mod, MaxSteps: 4096,
			Sched: &DecisionSched{Decisions: dec}, Observers: obs,
		})
		return err
	}
	// The seed run decides 0 at its first decision point, so its first
	// stored boundary is keyed "0." — which the second run's vector
	// extends, guaranteeing a cache hit for the mismatch to surface on.
	if err := run([]interp.Observer{race.NewDetector()}, []int{0}); err != nil {
		t.Fatal(err)
	}
	if snap.Stats().Stores == 0 {
		t.Fatal("seed run stored nothing; mismatch case not reachable")
	}
	err := run([]interp.Observer{race.NewDetector(), atomicity.NewDetector()}, []int{0, 1})
	if err != ErrSnapObserverMismatch {
		t.Fatalf("mismatched observers: err=%v, want ErrSnapObserverMismatch", err)
	}
}
