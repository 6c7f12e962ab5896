// Cross-exploration persistence. One Engine drives one exploration and
// then dies with everything it learned: the interleaving-coverage map
// and the set of report IDs it has already credited. A long-running
// service that analyzes the same program over and over should not pay
// for rediscovering all of that on every submission.
//
// ExploreState is that knowledge, lifted out of the Engine: a
// concurrency-safe bundle of coverage and the reports found so far that
// outlives any single exploration. An Engine constructed with
// EngineConfig.Resume starts pre-seeded from the state (its coverage,
// and its stored reports' IDs as the seen set)
// — so a re-run of an already-explored program produces no new coverage
// and no new reports, trips the saturation early stop, and spends a
// fraction of its budget — and Absorb folds what the exploration did
// learn back in. The stored reports are what makes such a short run
// complete: it finds few reports itself, so its caller returns the
// stored ones plus whatever it found new. Snapshot caches stay per
// exploration (EngineConfig.Snap): a cache kept alive across runs costs
// heap for as long as the program is stored.
//
// Coverage keys are instruction identities (*ir.Instr), so an
// ExploreState is only meaningful across explorations of the same frozen
// module value. The serve layer guarantees this by keying states by
// program content hash and pinning the parsed module alongside the
// state; anything else would silently fragment the coverage map.
package sched

import "sync"

// ExploreState accumulates exploration knowledge across runs of one
// program. All methods are safe for concurrent use; the zero value is
// not usable — construct with NewExploreState.
type ExploreState struct {
	mu sync.Mutex
	// pairs is the coverage, each pair once, in an exactly sized slice:
	// a server keeps one state per program it has seen, and the slice
	// costs a fraction of a hash set of the same pairs. Only fold needs
	// set lookups, and it builds one.
	pairs        []covKey
	explorations int
	// reports are the program's stored reports in first-seen order, each
	// ID once. The first version of a report wins: a later one is a
	// repeat, as in a detect stage. Their IDs are the state's seen-report
	// set; like pairs, it keeps no lookup set, fold builds one.
	reports []StableReport
	// journal, when non-nil, accumulates what each Absorb or Merge newly
	// learned in stable form until TakeDelta drains it (see stable.go).
	// Nil by default: journaling is opt-in via SetJournal.
	journal *StateSnapshot
}

// NewExploreState returns an empty state.
func NewExploreState() *ExploreState {
	return &ExploreState{}
}

// Warm reports whether at least one exploration has been absorbed — the
// signal a service counts as a resume hit.
func (s *ExploreState) Warm() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.explorations > 0
}

// Explorations returns the number of absorbed explorations.
func (s *ExploreState) Explorations() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.explorations
}

// Pairs returns the accumulated coverage-map size.
func (s *ExploreState) Pairs() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pairs)
}

// SeenReports returns the number of stored reports: the report IDs a
// resumed engine starts from.
func (s *ExploreState) SeenReports() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.reports)
}

// Reports returns a copy of the stored reports in first-seen order. The
// entries share their call-stack slices with the state; callers must
// not modify them.
func (s *ExploreState) Reports() []StableReport {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]StableReport(nil), s.reports...)
}

// seed copies the state's coverage into a fresh engine's coverage map
// and its stored reports' IDs into the engine's seen set (called by
// NewEngine; the engine is not yet shared, so its side needs no
// locking).
func (s *ExploreState) seed(e *Engine) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e.cov.pairs = make(map[covKey]struct{}, len(s.pairs))
	for _, k := range s.pairs {
		e.cov.pairs[k] = struct{}{}
	}
	for _, r := range s.reports {
		e.seen[r.ID] = true
	}
}

// Absorb folds a finished exploration's coverage back into the state,
// stores the reports it does not hold yet, and bumps the exploration
// count. The engine must be quiescent (ExploreCtx returned); absorbing
// the same engine twice is harmless (set semantics) but counts two
// explorations. reports are the stage's new reports in merge order,
// carrying the IDs the engine saw; the state keeps the slices they
// hold, so callers must not modify them afterwards.
func (s *ExploreState) Absorb(e *Engine, reports []StableReport) {
	if s == nil || e == nil {
		return
	}
	keys := make([]covKey, 0, len(e.cov.pairs))
	for k := range e.cov.pairs {
		keys = append(keys, k)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fold(keys, func(i int) StablePair { return stablePairOf(keys[i]) }, reports)
	s.explorations++
	if s.journal != nil {
		s.journal.Explorations = s.explorations
	}
}

// fold is the one step every Absorb and Merge takes under s.mu: add the
// keys and reports the state does not have yet, journaling each new one
// when the journal is on (stable renders keys[i] for it), and report
// whether anything was new. The grown pair slice is allocated at its
// exact size.
func (s *ExploreState) fold(keys []covKey, stable func(i int) StablePair, reports []StableReport) bool {
	have := make(map[covKey]struct{}, len(s.pairs)+len(keys))
	for _, k := range s.pairs {
		have[k] = struct{}{}
	}
	var fresh []covKey
	for i, k := range keys {
		if _, ok := have[k]; ok {
			continue
		}
		have[k] = struct{}{}
		fresh = append(fresh, k)
		if s.journal != nil {
			s.journal.Pairs = append(s.journal.Pairs, stable(i))
		}
	}
	if len(fresh) > 0 {
		s.pairs = append(append(make([]covKey, 0, len(s.pairs)+len(fresh)), s.pairs...), fresh...)
	}
	changed := len(fresh) > 0
	if len(reports) == 0 {
		return changed
	}
	stored := make(map[string]struct{}, len(s.reports)+len(reports))
	for _, r := range s.reports {
		stored[r.ID] = struct{}{}
	}
	for _, r := range reports {
		if _, ok := stored[r.ID]; ok {
			continue
		}
		stored[r.ID] = struct{}{}
		s.reports = append(s.reports, r)
		changed = true
		if s.journal != nil {
			s.journal.Reports = append(s.journal.Reports, r)
		}
	}
	return changed
}
