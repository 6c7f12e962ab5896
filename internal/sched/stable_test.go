package sched

import (
	"encoding/json"
	"reflect"
	"testing"

	"github.com/conanalysis/owl/internal/ir"
)

const stableTestSrc = `
module m

global @x = 0

func @worker(%n) {
entry:
  %v = load @x
  %v2 = add %v, %n
  store %v2, @x
  ret 0
}

func @main() {
entry:
  %t = call @spawn(@worker, 1)
  %r = call @join(%t)
  ret 0
}
`

func stableTestModule(t *testing.T) *ir.Module {
	t.Helper()
	m, err := ir.Parse("stable.oir", stableTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// warmState builds a state carrying a few coverage pairs and report IDs
// keyed against m, the way an absorbed exploration would have left it.
func warmState(t *testing.T, m *ir.Module) *ExploreState {
	t.Helper()
	s := NewExploreState()
	w, mn := m.Func("worker"), m.Func("main")
	s.mu.Lock()
	s.cov.pairs[covKey{from: w.InstrAt(0), to: mn.InstrAt(1)}] = struct{}{}
	s.cov.pairs[covKey{from: mn.InstrAt(0), to: w.InstrAt(2)}] = struct{}{}
	s.cov.pairs[covKey{from: w.InstrAt(3), to: w.InstrAt(0)}] = struct{}{}
	s.seen["race-b"] = true
	s.seen["race-a"] = true
	s.explorations = 2
	s.mu.Unlock()
	return s
}

// TestExportImportRoundTrip: Export against one parse of a module,
// Import against an independent re-parse — the restart path — must
// reproduce pair count, seen set, exploration count, and an identical
// re-export.
func TestExportImportRoundTrip(t *testing.T) {
	m1 := stableTestModule(t)
	s1 := warmState(t, m1)

	snap := s1.Export()
	if len(snap.Pairs) != 3 || len(snap.Seen) != 2 || snap.Explorations != 2 {
		t.Fatalf("export = %+v", snap)
	}
	if snap.Seen[0] != "race-a" || snap.Seen[1] != "race-b" {
		t.Errorf("seen not sorted: %v", snap.Seen)
	}

	m2 := stableTestModule(t)
	s2 := NewExploreState()
	if err := s2.Import(m2, snap); err != nil {
		t.Fatalf("import: %v", err)
	}
	if s2.Pairs() != 3 || s2.SeenReports() != 2 || s2.Explorations() != 2 {
		t.Fatalf("imported state: pairs=%d seen=%d expl=%d", s2.Pairs(), s2.SeenReports(), s2.Explorations())
	}
	if !s2.Warm() {
		t.Error("imported state is not warm")
	}
	if got := s2.Export(); !reflect.DeepEqual(got, snap) {
		t.Errorf("re-export diverged:\n got %+v\nwant %+v", got, snap)
	}
}

// TestExportDeterministicBytes: two identical states marshal to
// identical JSON — the property the persistence layer's checksummed
// blobs lean on.
func TestExportDeterministicBytes(t *testing.T) {
	m := stableTestModule(t)
	a, _ := json.Marshal(warmState(t, m).Export())
	b, _ := json.Marshal(warmState(t, m).Export())
	if string(a) != string(b) {
		t.Errorf("exports differ:\n%s\n%s", a, b)
	}
}

// TestImportRefusesToGuess: positions that do not resolve against the
// module fail the whole import; importing into a warm state fails too.
func TestImportRefusesToGuess(t *testing.T) {
	m := stableTestModule(t)
	bad := StateSnapshot{Pairs: []StablePair{{FromFn: "worker", FromIx: 0, ToFn: "gone", ToIx: 1}}}
	if err := NewExploreState().Import(m, bad); err == nil {
		t.Error("unresolvable pair imported silently")
	}
	outOfRange := StateSnapshot{Pairs: []StablePair{{FromFn: "worker", FromIx: 99, ToFn: "main", ToIx: 0}}}
	if err := NewExploreState().Import(m, outOfRange); err == nil {
		t.Error("out-of-range pair imported silently")
	}
	warm := warmState(t, m)
	if err := warm.Import(m, StateSnapshot{Explorations: 1}); err == nil {
		t.Error("import into warm state succeeded")
	}
	if err := NewExploreState().Import(ir.NewModule("cold"), StateSnapshot{}); err == nil {
		t.Error("import against unfrozen module succeeded")
	}
}

// TestJournalCapturesAbsorbDelta: with the journal on, Absorb records
// exactly what was new, TakeDelta drains it (sorted, absolute
// exploration count), and a second TakeDelta returns nil.
func TestJournalCapturesAbsorbDelta(t *testing.T) {
	m := stableTestModule(t)
	w := m.Func("worker")
	s := NewExploreState()
	s.SetJournal(true)

	e1 := NewEngine(EngineConfig{Budget: 6})
	e1.cov.pairs[covKey{from: w.InstrAt(0), to: w.InstrAt(1)}] = struct{}{}
	e1.cov.pairs[covKey{from: w.InstrAt(1), to: w.InstrAt(2)}] = struct{}{}
	e1.seen["r1"] = true
	s.Absorb(e1)

	d := s.TakeDelta()
	if d == nil || len(d.Pairs) != 2 || len(d.Seen) != 1 || d.Explorations != 1 {
		t.Fatalf("delta = %+v", d)
	}
	if d.Pairs[0].FromIx > d.Pairs[1].FromIx {
		t.Errorf("delta pairs not sorted: %+v", d.Pairs)
	}
	if s.TakeDelta() != nil {
		t.Error("drained journal yielded a second delta")
	}

	// A saturated re-absorb (nothing new) still journals the exploration
	// count, so the persistence layer records the submission.
	e2 := NewEngine(EngineConfig{Budget: 6})
	e2.cov.pairs[covKey{from: w.InstrAt(0), to: w.InstrAt(1)}] = struct{}{}
	e2.seen["r1"] = true
	s.Absorb(e2)
	d = s.TakeDelta()
	if d == nil || len(d.Pairs) != 0 || len(d.Seen) != 0 || d.Explorations != 2 {
		t.Fatalf("saturated delta = %+v", d)
	}
}

// TestApplyDeltaIdempotent: replaying a delta that is already folded in
// (checkpoint-then-crash-before-WAL-reset) changes nothing, and
// replaying on a cold state converges to the same counters.
func TestApplyDeltaIdempotent(t *testing.T) {
	m := stableTestModule(t)
	d := &StateDelta{
		Pairs:        []StablePair{{FromFn: "worker", FromIx: 0, ToFn: "worker", ToIx: 1}},
		Seen:         []string{"r1"},
		Explorations: 3,
	}
	s := NewExploreState()
	for i := 0; i < 3; i++ {
		if err := s.ApplyDelta(m, d); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	if s.Pairs() != 1 || s.SeenReports() != 1 || s.Explorations() != 3 {
		t.Fatalf("after 3 replays: pairs=%d seen=%d expl=%d", s.Pairs(), s.SeenReports(), s.Explorations())
	}
	// A stale delta (lower absolute count) never regresses the counter.
	stale := &StateDelta{Explorations: 1, Seen: []string{"r0"}}
	if err := s.ApplyDelta(m, stale); err != nil {
		t.Fatal(err)
	}
	if s.Explorations() != 3 || s.SeenReports() != 2 {
		t.Fatalf("stale replay regressed state: expl=%d seen=%d", s.Explorations(), s.SeenReports())
	}
	bad := &StateDelta{Pairs: []StablePair{{FromFn: "gone", FromIx: 0, ToFn: "worker", ToIx: 0}}}
	if err := s.ApplyDelta(m, bad); err == nil {
		t.Error("unresolvable delta applied silently")
	}
}

// TestImportedStateResumes is the end-to-end contract: an engine resumed
// from an imported state behaves exactly like one resumed from the
// original — saturation early-stop and all (the scripted-coverage
// analogue of the serve restart-resume parity gate).
func TestImportedStateResumes(t *testing.T) {
	m := stableTestModule(t)
	w := m.Func("worker")
	pairFor := func(j *Job) covKey {
		// Fabricate a deterministic per-job pair from the job's seed so
		// replays re-observe the same pairs.
		i := int(j.Seed) % 3
		return covKey{from: w.InstrAt(i), to: w.InstrAt((i + 1) % 4)}
	}
	runner := func(jobs []*Job) error {
		for _, j := range jobs {
			j.Cov.pairs[pairFor(j)] = struct{}{}
			j.ReportIDs = []string{"race-shared"}
		}
		return nil
	}

	orig := NewExploreState()
	first := NewEngine(EngineConfig{Budget: 24, RoundRuns: 6, Saturation: 2})
	if _, err := first.Explore(runner); err != nil {
		t.Fatal(err)
	}
	orig.Absorb(first)

	imported := NewExploreState()
	if err := imported.Import(stableTestModule(t), orig.Export()); err != nil {
		t.Fatal(err)
	}
	// The imported state was bound against a re-parse; resume the engine
	// against the ORIGINAL module's instructions (the serve layer always
	// re-resolves module and state together, so bind against m here).
	imported2 := NewExploreState()
	if err := imported2.Import(m, orig.Export()); err != nil {
		t.Fatal(err)
	}

	run := func(state *ExploreState) *EngineResult {
		e := NewEngine(EngineConfig{Budget: 24, RoundRuns: 6, Saturation: 2, Resume: state})
		res, err := e.Explore(runner)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fromOrig, fromImported := run(orig), run(imported2)
	if fromOrig.Runs != fromImported.Runs || fromOrig.EarlyStop != fromImported.EarlyStop {
		t.Errorf("imported resume diverged: orig runs=%d early=%v, imported runs=%d early=%v",
			fromOrig.Runs, fromOrig.EarlyStop, fromImported.Runs, fromImported.EarlyStop)
	}
	if !fromImported.EarlyStop {
		t.Error("imported resume did not early-stop")
	}
}
