// Stable serialization of ExploreState. The in-memory state keys
// coverage by *ir.Instr identity, which is meaningless across process
// boundaries; Export re-keys every pair by ir.InstrPos (function name +
// flat instruction index — deterministic products of Module.Freeze) and
// Merge re-binds them against a re-resolved module, refusing to guess
// when a position no longer resolves. The serve persistence layer
// (internal/serve/persist) stores Export's snapshot in checkpoints and
// the per-job journal deltas in its WAL.
package sched

import (
	"fmt"
	"sort"

	"github.com/conanalysis/owl/internal/ir"
)

// StablePair is one interleaving-coverage pair re-keyed by stable
// instruction positions. An absent end (never produced by the current
// recorder, but tolerated for forward compatibility) is encoded as an
// empty function name with index -1.
type StablePair struct {
	FromFn string `json:"ff,omitempty"`
	FromIx int    `json:"fi"`
	ToFn   string `json:"tf,omitempty"`
	ToIx   int    `json:"ti"`
}

func stablePairOf(k covKey) StablePair {
	p := StablePair{FromIx: -1, ToIx: -1}
	if pos, ok := ir.PosOf(k.from); ok {
		p.FromFn, p.FromIx = pos.Func, pos.Index
	}
	if pos, ok := ir.PosOf(k.to); ok {
		p.ToFn, p.ToIx = pos.Func, pos.Index
	}
	return p
}

// resolve re-binds the pair against m. ok is false when either end
// names a position the module does not have — persisted state from a
// different program, which the caller must discard wholesale.
func (p StablePair) resolve(m *ir.Module) (covKey, bool) {
	var k covKey
	if p.FromFn != "" || p.FromIx >= 0 {
		if k.from = m.InstrAtPos(ir.InstrPos{Func: p.FromFn, Index: p.FromIx}); k.from == nil {
			return covKey{}, false
		}
	}
	if p.ToFn != "" || p.ToIx >= 0 {
		if k.to = m.InstrAtPos(ir.InstrPos{Func: p.ToFn, Index: p.ToIx}); k.to == nil {
			return covKey{}, false
		}
	}
	return k, true
}

func sortPairs(ps []StablePair) {
	sort.Slice(ps, func(i, j int) bool {
		a, b := ps[i], ps[j]
		if a.FromFn != b.FromFn {
			return a.FromFn < b.FromFn
		}
		if a.FromIx != b.FromIx {
			return a.FromIx < b.FromIx
		}
		if a.ToFn != b.ToFn {
			return a.ToFn < b.ToFn
		}
		return a.ToIx < b.ToIx
	})
}

// StateSnapshot is the serializable form of an ExploreState: coverage
// pairs and seen-report IDs in sorted order (so identical states
// marshal to identical bytes) plus the exploration count. Export
// produces the full state; TakeDelta produces the growth since the last
// drain, whose count is still absolute, not an increment, so that
// folding any suffix of deltas on top of any checkpoint converges to
// the same counters. The snapshot cache is deliberately absent —
// machine snapshots are in-memory page images and are rebuilt from
// scratch after a restart.
type StateSnapshot struct {
	Pairs        []StablePair `json:"pairs,omitempty"`
	Seen         []string     `json:"seen,omitempty"`
	Explorations int          `json:"explorations"`
}

// Export snapshots the state in stable form. Safe to call concurrently
// with Absorb; the snapshot is a consistent point-in-time view.
func (s *ExploreState) Export() StateSnapshot {
	if s == nil {
		return StateSnapshot{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := StateSnapshot{Explorations: s.explorations}
	for _, k := range s.pairs {
		snap.Pairs = append(snap.Pairs, stablePairOf(k))
	}
	sortPairs(snap.Pairs)
	snap.Seen = make([]string, 0, len(s.seen))
	for id := range s.seen {
		snap.Seen = append(snap.Seen, id)
	}
	sort.Strings(snap.Seen)
	return snap
}

// SetJournal switches delta journaling on or off. With the journal on,
// every Absorb and Merge records which pairs and report IDs were new;
// TakeDelta drains them. Off (the default) keeps Absorb allocation-free
// for callers that never persist.
func (s *ExploreState) SetJournal(on bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if on && s.journal == nil {
		s.journal = &StateSnapshot{}
	} else if !on {
		s.journal = nil
	}
}

// TakeDelta drains the journal: everything folded in since the previous
// TakeDelta (or SetJournal), in sorted order, with the absolute
// exploration count stamped in. Returns nil when journaling is off or
// nothing accumulated.
func (s *ExploreState) TakeDelta() *StateSnapshot {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil || (len(s.journal.Pairs) == 0 && len(s.journal.Seen) == 0 && s.journal.Explorations == 0) {
		return nil
	}
	d := s.journal
	s.journal = &StateSnapshot{}
	sortPairs(d.Pairs)
	sort.Strings(d.Seen)
	d.Explorations = s.explorations
	return d
}

// Merge folds a snapshot into the state: a checkpoint or WAL delta at
// recovery, or a peer's checkpoint. It re-binds every pair against the
// frozen module m and refuses to guess: any pair that does not resolve
// (the snapshot was taken from a different program) fails the whole
// merge with the state untouched. Pairs and seen IDs union in (set
// semantics), Explorations takes the max (both sides count real
// absorbed explorations; max keeps the counter monotonic without
// double-counting shared history), so folding the same snapshot twice
// changes nothing. With journaling on, what was new lands in the
// journal, for the next WAL record to carry.
//
// The returned bool reports whether anything new landed; false means
// the snapshot was stale (already a subset of this state).
func (s *ExploreState) Merge(m *ir.Module, snap StateSnapshot) (bool, error) {
	if s == nil {
		return false, fmt.Errorf("sched: merge into nil ExploreState")
	}
	if m == nil || !m.Frozen() {
		return false, fmt.Errorf("sched: merge needs a frozen module")
	}
	resolved := make([]covKey, len(snap.Pairs))
	for i, p := range snap.Pairs {
		k, ok := p.resolve(m)
		if !ok {
			return false, fmt.Errorf("sched: merge: pair %d (@%s#%d -> @%s#%d) does not resolve in module %s",
				i, p.FromFn, p.FromIx, p.ToFn, p.ToIx, m.Name)
		}
		resolved[i] = k
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	changed := s.fold(resolved, func(i int) StablePair { return snap.Pairs[i] }, snap.Seen)
	if snap.Explorations > s.explorations {
		s.explorations = snap.Explorations
		changed = true
		if s.journal != nil {
			s.journal.Explorations = s.explorations
		}
	}
	return changed, nil
}
