package sched

import (
	"encoding/json"
	"fmt"
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

// warmState builds a state carrying a few coverage pairs and stored
// reports keyed against m, the way an absorbed exploration would have left it.
func warmState(t *testing.T, m *ir.Module) *ExploreState {
	t.Helper()
	s := NewExploreState()
	w, mn := m.Func("worker"), m.Func("main")
	s.mu.Lock()
	s.pairs = append(s.pairs,
		covKey{from: w.InstrAt(0), to: mn.InstrAt(1)},
		covKey{from: mn.InstrAt(0), to: w.InstrAt(2)},
		covKey{from: w.InstrAt(3), to: w.InstrAt(0)})
	s.reports = append(s.reports, storedReport(3, 0, 1), storedReport(0, 2, 1))
	s.explorations = 2
	s.mu.Unlock()
	return s
}

// TestExportImportRoundTrip: Export against one parse of a module,
// Merge into a fresh state against an independent re-parse — the restart path — must
// reproduce pair count, stored reports in order, exploration count, and
// an identical re-export.
func TestExportImportRoundTrip(t *testing.T) {
	m1 := stableTestModule(t)
	s1 := warmState(t, m1)

	snap := s1.Export()
	if len(snap.Pairs) != 3 || len(snap.Reports) != 2 || snap.Explorations != 2 {
		t.Fatalf("export = %+v", snap)
	}
	if snap.Reports[0].ID != storedReport(3, 0, 1).ID || snap.Reports[1].ID != storedReport(0, 2, 1).ID {
		t.Errorf("stored reports not in first-seen order: %+v", snap.Reports)
	}

	m2 := stableTestModule(t)
	s2 := NewExploreState()
	if _, err := s2.Merge(m2, snap); err != nil {
		t.Fatalf("merge: %v", err)
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
// module fail the whole merge and leave a warm state untouched; a
// module that is not frozen is refused too.
func TestImportRefusesToGuess(t *testing.T) {
	m := stableTestModule(t)
	bad := StateSnapshot{Pairs: []StablePair{{FromFn: "worker", FromIx: 0, ToFn: "gone", ToIx: 1}}}
	if _, err := NewExploreState().Merge(m, bad); err == nil {
		t.Error("unresolvable pair imported silently")
	}
	outOfRange := StateSnapshot{Pairs: []StablePair{{FromFn: "worker", FromIx: 99, ToFn: "main", ToIx: 0}}}
	if _, err := NewExploreState().Merge(m, outOfRange); err == nil {
		t.Error("out-of-range pair imported silently")
	}
	warm := warmState(t, m)
	before := warm.Export()
	partlyBad := StateSnapshot{
		Pairs:        []StablePair{{FromFn: "main", FromIx: 1, ToFn: "main", ToIx: 2}, bad.Pairs[0]},
		Reports:      []StableReport{storedReport(1, 2, 1)},
		Explorations: 9,
	}
	if _, err := warm.Merge(m, partlyBad); err == nil {
		t.Error("merge with an unresolvable pair succeeded")
	}
	if got := warm.Export(); !reflect.DeepEqual(got, before) {
		t.Errorf("refused merge changed the state:\n got %+v\nwant %+v", got, before)
	}
	if _, err := NewExploreState().Merge(ir.NewModule("cold"), StateSnapshot{}); err == nil {
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
	s.Absorb(e1, []StableReport{storedReport(0, 1, 1)})

	d := s.TakeDelta()
	if d == nil || len(d.Pairs) != 2 || len(d.Reports) != 1 || d.Explorations != 1 {
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
	s.Absorb(e2, []StableReport{storedReport(1, 0, 1)})
	d = s.TakeDelta()
	if d == nil || len(d.Pairs) != 0 || len(d.Reports) != 0 || d.Explorations != 2 {
		t.Fatalf("saturated delta = %+v", d)
	}
}

// TestMergeDeltaIdempotent: replaying a delta that is already folded in
// (checkpoint-then-crash-before-WAL-reset) changes nothing, replaying
// on a cold state converges to the same counters, and with the journal
// on only what was new is journaled.
func TestMergeDeltaIdempotent(t *testing.T) {
	m := stableTestModule(t)
	d := StateSnapshot{
		Pairs:        []StablePair{{FromFn: "worker", FromIx: 0, ToFn: "worker", ToIx: 1}},
		Reports:      []StableReport{storedReport(0, 1, 1)},
		Explorations: 3,
	}
	s := NewExploreState()
	for i := 0; i < 3; i++ {
		changed, err := s.Merge(m, d)
		if err != nil {
			t.Fatalf("merge %d: %v", i, err)
		}
		if changed != (i == 0) {
			t.Errorf("merge %d reported changed=%v", i, changed)
		}
	}
	if s.Pairs() != 1 || s.SeenReports() != 1 || s.Explorations() != 3 {
		t.Fatalf("after 3 replays: pairs=%d seen=%d expl=%d", s.Pairs(), s.SeenReports(), s.Explorations())
	}
	// A stale delta (lower absolute count) never regresses the counter.
	s.SetJournal(true)
	r0 := storedReport(0, 3, 1)
	stale := StateSnapshot{Explorations: 1, Reports: []StableReport{r0, storedReport(0, 1, 1)}}
	if _, err := s.Merge(m, stale); err != nil {
		t.Fatal(err)
	}
	if s.Explorations() != 3 || s.SeenReports() != 2 {
		t.Fatalf("stale replay regressed state: expl=%d seen=%d", s.Explorations(), s.SeenReports())
	}
	if j := s.TakeDelta(); j == nil || len(j.Pairs) != 0 || !reflect.DeepEqual(j.Reports, []StableReport{r0}) || j.Explorations != 3 {
		t.Errorf("journal after stale merge = %+v, want only %s", j, r0.ID)
	}
	bad := StateSnapshot{Pairs: []StablePair{{FromFn: "gone", FromIx: 0, ToFn: "worker", ToIx: 0}}}
	if _, err := s.Merge(m, bad); err == nil {
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
	shared := storedReport(0, 1, 1)
	runner := func(jobs []*Job) error {
		for _, j := range jobs {
			j.Cov.pairs[pairFor(j)] = struct{}{}
			j.ReportIDs = []string{shared.ID}
		}
		return nil
	}

	orig := NewExploreState()
	first := NewEngine(EngineConfig{Budget: 24, RoundRuns: 6, Saturation: 2})
	if _, err := first.Explore(runner); err != nil {
		t.Fatal(err)
	}
	orig.Absorb(first, []StableReport{shared})

	imported := NewExploreState()
	if _, err := imported.Merge(stableTestModule(t), orig.Export()); err != nil {
		t.Fatal(err)
	}
	// The imported state was bound against a re-parse; resume the engine
	// against the ORIGINAL module's instructions (the serve layer always
	// re-resolves module and state together, so bind against m here).
	imported2 := NewExploreState()
	if _, err := imported2.Merge(m, orig.Export()); err != nil {
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

// storedReport is a stored report on the racing pair (worker#a,
// worker#b), tagged by count so tests can tell versions apart. Its ID
// names the unordered pair, as a race report's does.
func storedReport(a, b, count int) StableReport {
	return StableReport{
		ID:       fmt.Sprintf("race worker#%d worker#%d", min(a, b), max(a, b)),
		Prev:     StableAccess{TID: 1, IsWrite: true, Instr: ir.InstrPos{Func: "worker", Index: a}, Step: 4},
		Cur:      StableAccess{TID: 2, Instr: ir.InstrPos{Func: "worker", Index: b}, Step: 9},
		AddrName: "@x",
		Count:    count,
	}
}

// TestStoredReports pins the stored-report contract a resumed detect
// stage leans on: Absorb appends the reports the state does not hold in
// the order given, a report with a known ID (the same pair in either
// order) keeps the first version, the journal carries exactly the new ones, and Export
// → Merge into an empty state reproduces the list, order included.
func TestStoredReports(t *testing.T) {
	m := stableTestModule(t)
	s := NewExploreState()
	s.SetJournal(true)
	s.Absorb(NewEngine(EngineConfig{Budget: 6}), []StableReport{storedReport(2, 0, 1), storedReport(1, 3, 1)})
	s.TakeDelta()
	s.Absorb(NewEngine(EngineConfig{Budget: 6}), []StableReport{storedReport(0, 2, 9), storedReport(0, 1, 1)})
	want := []StableReport{storedReport(2, 0, 1), storedReport(1, 3, 1), storedReport(0, 1, 1)}
	if got := s.Reports(); !reflect.DeepEqual(got, want) {
		t.Fatalf("stored reports\n got %+v\nwant %+v", got, want)
	}
	if d := s.TakeDelta(); d == nil || !reflect.DeepEqual(d.Reports, want[2:]) {
		t.Fatalf("journal = %+v, want only the new report", d)
	}
	s.Absorb(nil, want) // no engine: nothing absorbed
	if n := len(s.Reports()); n != 3 {
		t.Fatalf("absorbing without an engine stored reports: %d", n)
	}

	again := NewExploreState()
	changed, err := again.Merge(m, s.Export())
	if err != nil || !changed {
		t.Fatalf("merge of the export: changed=%v err=%v", changed, err)
	}
	if !reflect.DeepEqual(again.Reports(), want) {
		t.Errorf("merged stored reports\n got %+v\nwant %+v", again.Reports(), want)
	}
	if changed, _ := again.Merge(m, s.Export()); changed {
		t.Error("re-merging the same export changed the state")
	}

	bad := StateSnapshot{Reports: []StableReport{storedReport(0, 99, 1)}}
	if _, err := again.Merge(m, bad); err == nil {
		t.Error("a stored report naming no instruction merged silently")
	}
	noID := storedReport(0, 3, 1)
	noID.ID = ""
	if _, err := again.Merge(m, StateSnapshot{Reports: []StableReport{noID}}); err == nil {
		t.Error("a stored report without an ID merged silently")
	}
	if len(again.Reports()) != 3 {
		t.Error("a refused merge changed the stored reports")
	}
}
