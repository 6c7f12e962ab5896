package predict

import (
	"reflect"
	"testing"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/race"
	"github.com/conanalysis/owl/internal/sched"
)

// seedRun executes src once under the non-preemptive default schedule
// with a detector and recorder attached — the same observer composition
// the pipeline's seed phase uses.
func seedRun(t *testing.T, src string) (*race.Detector, *Recorder, *sched.DecisionSched, *ir.Module) {
	t.Helper()
	mod, err := ir.Parse("predict_test.oir", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	d := race.NewDetector()
	rec := NewRecorder()
	ds := &sched.DecisionSched{}
	m, err := interp.New(interp.Config{
		Module: mod, Sched: ds,
		Observers: []interp.Observer{d, rec},
	})
	if err != nil {
		t.Fatalf("new machine: %v", err)
	}
	m.Run()
	return d, rec, ds, mod
}

// The classic sync-preserving predictable race: the store and load are
// never adjacent under the executed schedule (the empty critical
// sections order them via lock release/acquire), but dropping the
// writer's critical section from the reordering makes them race.
const classicSrc = `
global @l = 0
global @x = 0

func @worker() {
entry:
  call @mutex_lock(@l)
  call @mutex_unlock(@l)
  %v = load @x
  ret 0
}
func @main() {
entry:
  %t = call @spawn(@worker)
  store 1, @x
  call @mutex_lock(@l)
  call @mutex_unlock(@l)
  %r = call @join(%t)
  ret 0
}
`

func TestPredictsRaceHiddenByLockOrder(t *testing.T) {
	d, rec, _, _ := seedRun(t, classicSrc)
	if n := len(d.Reports()); n != 0 {
		t.Fatalf("seed schedule should observe no race, got %d:\n%v", n, d.Reports())
	}
	pairs := Pairs(rec.Events(), false)
	if len(pairs) != 1 {
		t.Fatalf("got %d predicted pairs, want 1: %+v", len(pairs), pairs)
	}
	p := pairs[0]
	if p.Reversed {
		t.Errorf("pair should be sync-preserving, not reversal-only")
	}
	if p.A.Kind != interp.EvWrite || p.B.Kind != interp.EvRead {
		t.Errorf("pair kinds = %v/%v, want write/read", p.A.Kind, p.B.Kind)
	}
	if p.A.Addr != p.B.Addr {
		t.Errorf("pair addresses differ: %#x vs %#x", p.A.Addr, p.B.Addr)
	}
	if p.A.Step >= p.B.Step {
		t.Errorf("A must be the earlier trace event (steps %d >= %d)", p.A.Step, p.B.Step)
	}
}

const spawnJoinSrc = `
global @x = 0

func @worker() {
entry:
  store 1, @x
  ret 0
}
func @main() {
entry:
  store 5, @x
  %t = call @spawn(@worker)
  %r = call @join(%t)
  %v = load @x
  ret 0
}
`

func TestSpawnJoinOrderedAccessesNotPredicted(t *testing.T) {
	_, rec, _, _ := seedRun(t, spawnJoinSrc)
	for _, rev := range []bool{false, true} {
		if pairs := Pairs(rec.Events(), rev); len(pairs) != 0 {
			t.Errorf("reversal=%v: fork/join-ordered accesses predicted as races: %+v", rev, pairs)
		}
	}
}

const lockedSrc = `
global @m = 0
global @x = 0

func @worker() {
entry:
  call @mutex_lock(@m)
  store 1, @x
  call @mutex_unlock(@m)
  ret 0
}
func @main() {
entry:
  %t = call @spawn(@worker)
  call @mutex_lock(@m)
  %v = load @x
  call @mutex_unlock(@m)
  %r = call @join(%t)
  ret 0
}
`

func TestSharedLocksetSuppressesPrediction(t *testing.T) {
	_, rec, _, _ := seedRun(t, lockedSrc)
	for _, rev := range []bool{false, true} {
		if pairs := Pairs(rec.Events(), rev); len(pairs) != 0 {
			t.Errorf("reversal=%v: lock-protected accesses predicted as races: %+v", rev, pairs)
		}
	}
}

// revSrc: the store/load on @y are ordered by the sync-preserving
// closure — the reader's critical section observes the writer's through
// the conflict on @x — but racing them only needs the two critical
// sections to swap, which the optimistic arm permits.
const revSrc = `
global @l = 0
global @x = 0
global @y = 0

func @worker() {
entry:
  call @mutex_lock(@l)
  %v = load @x
  call @mutex_unlock(@l)
  %w = load @y
  ret 0
}
func @main() {
entry:
  %t = call @spawn(@worker)
  store 1, @y
  call @mutex_lock(@l)
  store 1, @x
  call @mutex_unlock(@l)
  %r = call @join(%t)
  ret 0
}
`

func TestReversalArmExtendsSyncPreserving(t *testing.T) {
	d, rec, _, _ := seedRun(t, revSrc)
	if n := len(d.Reports()); n != 0 {
		t.Fatalf("seed schedule should observe no race, got %d", n)
	}
	sp := Pairs(rec.Events(), false)
	if len(sp) != 0 {
		t.Fatalf("sync-preserving arm predicted %d pairs, want 0: %+v", len(sp), sp)
	}
	rev := Pairs(rec.Events(), true)
	if len(rev) != 1 {
		t.Fatalf("reversal arm predicted %d pairs, want 1: %+v", len(rev), rev)
	}
	if !rev[0].Reversed {
		t.Errorf("pair should be tagged Reversed")
	}
}

func TestPairsDeterministic(t *testing.T) {
	_, rec1, _, _ := seedRun(t, classicSrc)
	_, rec2, _, _ := seedRun(t, classicSrc)
	for _, rev := range []bool{false, true} {
		a, b := Pairs(rec1.Events(), rev), Pairs(rec2.Events(), rev)
		if !reflect.DeepEqual(pairIDs(a), pairIDs(b)) {
			t.Errorf("reversal=%v: identical traces predicted different pairs:\n%v\n%v",
				rev, pairIDs(a), pairIDs(b))
		}
		if again := Pairs(rec1.Events(), rev); !reflect.DeepEqual(pairIDs(a), pairIDs(again)) {
			t.Errorf("reversal=%v: re-running Pairs over one trace diverged", rev)
		}
	}
}

func pairIDs(pairs []Pair) []string {
	ids := make([]string, len(pairs))
	for i, p := range pairs {
		ids[i] = p.ID()
	}
	return ids
}

func TestRecorderForksExactly(t *testing.T) {
	_, rec, _, _ := seedRun(t, classicSrc)
	full := append([]Ev(nil), rec.Events()...)
	if len(full) == 0 {
		t.Fatal("empty trace")
	}

	// Fork at a mid-trace boundary, diverge, restore, and re-append: the
	// restored recorder must not alias the diverged suffix.
	half := &Recorder{events: full[: len(full)/2 : len(full)/2]}
	snap := half.SnapshotState()
	half.OnEvent(nil, &interp.Event{Kind: interp.EvAcquire, TID: 9, Addr: 0xdead})
	fresh := NewRecorder()
	if !fresh.RestoreState(snap) {
		t.Fatal("RestoreState rejected its own snapshot")
	}
	if len(fresh.Events()) != len(full)/2 {
		t.Fatalf("restored %d events, want %d", len(fresh.Events()), len(full)/2)
	}
	fresh.OnEvent(nil, &interp.Event{Kind: interp.EvRelease, TID: 7, Addr: 0xbeef})
	if half.Events()[len(full)/2].Addr != 0xdead {
		t.Error("restore aliased the diverged writer's suffix")
	}
	if fresh.Events()[len(full)/2].Addr != 0xbeef {
		t.Error("restored recorder's append landed elsewhere")
	}
	if fresh.RestoreState(42) {
		t.Error("RestoreState accepted a foreign value")
	}
}

func TestPrefixFor(t *testing.T) {
	decisions := []sched.Decision{
		{Chosen: 1, Step: 3},
		{Chosen: 0, Step: 7},
		{Chosen: 2, Step: 11},
	}
	p := Pair{A: Ev{Step: 8}}
	if got := PrefixFor(decisions, p); !reflect.DeepEqual(got, []int{1, 0}) {
		t.Errorf("PrefixFor = %v, want [1 0]", got)
	}
	if got := PrefixFor(decisions, Pair{A: Ev{Step: 3}}); got != nil {
		t.Errorf("decision at the access's own step must not replay, got %v", got)
	}
	if got := PrefixFor(decisions, Pair{A: Ev{Step: 100}}); !reflect.DeepEqual(got, []int{1, 0, 2}) {
		t.Errorf("PrefixFor = %v, want full vector", got)
	}
}

// confirmOn predicts pairs from one seed run of src and confirms the
// first one, returning the confirmation verdict.
func confirmOn(t *testing.T, src string, reversal bool, snap *sched.SnapCache) bool {
	t.Helper()
	_, rec, ds, mod := seedRun(t, src)
	pairs := Pairs(rec.Events(), reversal)
	if len(pairs) == 0 {
		t.Fatal("no pairs predicted")
	}
	cand := Candidate{Pair: pairs[0], Prefix: PrefixFor(ds.Trace, pairs[0])}
	cf := &Confirmer{Snap: snap}
	reports, hit, err := cf.Confirm(interp.Config{Module: mod}, cand)
	if err != nil {
		t.Fatalf("confirm: %v", err)
	}
	if hit && !pairIn(reports, cand.Pair) {
		t.Error("hit reported but pair not among reports")
	}
	return hit
}

func TestConfirmRealizesClassicPair(t *testing.T) {
	if !confirmOn(t, classicSrc, false, nil) {
		t.Error("classic sync-preserving pair should confirm")
	}
}

func TestConfirmWithSnapCacheMatchesWithout(t *testing.T) {
	with := confirmOn(t, classicSrc, false, sched.NewSnapCache(8))
	without := confirmOn(t, classicSrc, false, nil)
	if with != without {
		t.Errorf("verdict differs with snap cache: with=%v without=%v", with, without)
	}
}

func TestConfirmRealizesReversalPair(t *testing.T) {
	// The reversal-arm pair is reachable by an actual execution (run the
	// reader's critical section first), so steering must realize it —
	// this is precisely the race the sync-preserving arm cannot see.
	if !confirmOn(t, revSrc, true, nil) {
		t.Error("reversal pair is dynamically reachable and should confirm")
	}
}

func TestConfirmRefutesProtectedPair(t *testing.T) {
	// Fabricate a candidate the predictor would never emit: the two
	// lock-protected accesses of lockedSrc. Steering cannot make them
	// adjacent — the reader's thread blocks on the mutex while the writer
	// is held — so the confirmation must come back refuted, not wedge.
	_, rec, ds, mod := seedRun(t, lockedSrc)
	var acc []Ev
	for _, e := range rec.Events() {
		if e.Kind == interp.EvRead || e.Kind == interp.EvWrite {
			acc = append(acc, e)
		}
	}
	if len(acc) < 2 {
		t.Fatalf("expected two accesses in trace, got %d", len(acc))
	}
	cand := Candidate{
		Pair:   Pair{A: acc[0], B: acc[1]},
		Prefix: PrefixFor(ds.Trace, Pair{A: acc[0], B: acc[1]}),
	}
	cf := &Confirmer{Snap: nil}
	reports, hit, err := cf.Confirm(interp.Config{Module: mod}, cand)
	if err != nil {
		t.Fatalf("confirm: %v", err)
	}
	if hit {
		t.Errorf("lock-protected pair confirmed; reports: %v", reports)
	}
	if len(reports) != 0 {
		t.Errorf("refuting run reported races: %v", reports)
	}
}
