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
	mu sync.Mutex
	// pairs is the coverage, each pair once, in an exactly sized slice:
	// a server keeps one state per program it has seen, and the slice
	// costs a fraction of a hash set of the same pairs. Only fold needs
	// set lookups, and it builds one.
	pairs        []covKey
	seen         map[string]bool
	explorations int
	// journal, when non-nil, accumulates what each Absorb or Merge newly
	// learned in stable form until TakeDelta drains it (see stable.go).
	// Nil by default: journaling is opt-in via SetJournal.
	journal *StateSnapshot
}

// NewExploreState returns an empty state.
func NewExploreState() *ExploreState {
	return &ExploreState{seen: make(map[string]bool)}
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
	for _, k := range s.pairs {
		e.cov.pairs[k] = struct{}{}
	}
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
	keys := make([]covKey, 0, len(e.cov.pairs))
	for k := range e.cov.pairs {
		keys = append(keys, k)
	}
	ids := make([]string, 0, len(e.seen))
	for id := range e.seen {
		ids = append(ids, id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fold(keys, func(i int) StablePair { return stablePairOf(keys[i]) }, ids)
	s.explorations++
	if s.journal != nil {
		s.journal.Explorations = s.explorations
	}
}

// fold is the one step every Absorb and Merge takes under s.mu: add the
// keys and report IDs the state does not have yet, journaling each new
// one when the journal is on (stable renders keys[i] for it), and
// report whether anything was new. The grown pair slice is allocated at
// its exact size.
func (s *ExploreState) fold(keys []covKey, stable func(i int) StablePair, seen []string) bool {
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
	for _, id := range seen {
		if s.seen[id] {
			continue
		}
		s.seen[id] = true
		changed = true
		if s.journal != nil {
			s.journal.Seen = append(s.journal.Seen, id)
		}
	}
	return changed
}
