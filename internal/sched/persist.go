// Cross-exploration persistence. One Engine drives one exploration and
// then dies with everything it learned: the interleaving-coverage map
// and the set of report IDs it has already credited. A long-running
// service that analyzes the same program over and over should not pay
// for rediscovering all of that on every submission.
//
// ExploreState is that knowledge, lifted out of the Engine: a
// concurrency-safe bundle of coverage + seen-report IDs that outlives
// any single exploration. An Engine constructed with EngineConfig.Resume
// starts pre-seeded from the state — so a re-run of an already-explored
// program produces no new coverage and no new reports, trips the
// saturation early stop, and spends a fraction of its budget — and
// Absorb folds what the exploration did learn back in. Snapshot caches
// stay per exploration (EngineConfig.Snap): a cache kept alive across
// runs costs heap for as long as the program is stored.
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
	mu           sync.Mutex
	cov          *Coverage
	seen         map[string]bool
	explorations int
	// journal, when non-nil, accumulates what each Absorb newly learned
	// in stable form until TakeDelta drains it (see stable.go). Nil by
	// default: journaling is opt-in via SetJournal.
	journal *StateDelta
}

// NewExploreState returns an empty state.
func NewExploreState() *ExploreState {
	return &ExploreState{
		cov:  NewCoverage(),
		seen: make(map[string]bool),
	}
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
	return s.cov.Pairs()
}

// SeenReports returns the number of distinct report IDs absorbed.
func (s *ExploreState) SeenReports() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.seen)
}

// seed copies the state into a fresh engine's coverage map and seen set
// (called by NewEngine under the state lock; the engine is not yet
// shared, so its side needs no locking).
func (s *ExploreState) seed(e *Engine) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e.cov.MergeCoverage(s.cov)
	for id := range s.seen {
		e.seen[id] = true
	}
}

// Absorb folds a finished exploration's coverage and report IDs back
// into the state and bumps the exploration count. The engine must be
// quiescent (ExploreCtx returned); absorbing the same engine twice is
// harmless (set semantics) but counts two explorations.
func (s *ExploreState) Absorb(e *Engine) {
	if s == nil || e == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range e.cov.pairs {
		if _, ok := s.cov.pairs[k]; ok {
			continue
		}
		s.cov.pairs[k] = struct{}{}
		if s.journal != nil {
			s.journal.Pairs = append(s.journal.Pairs, stablePairOf(k))
		}
	}
	for id := range e.seen {
		if s.seen[id] {
			continue
		}
		s.seen[id] = true
		if s.journal != nil {
			s.journal.Seen = append(s.journal.Seen, id)
		}
	}
	s.explorations++
	if s.journal != nil {
		s.journal.Explorations = s.explorations
	}
}
