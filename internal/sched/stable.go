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

	"github.com/conanalysis/owl/internal/callstack"
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

// StableAccess is one side of a stored race report: the fields of a
// race.Access, with the instruction re-keyed by its stable position.
// Stack entries are plain data (function name plus source position)
// and are stored as they are.
type StableAccess struct {
	TID     int             `json:"tid"`
	IsWrite bool            `json:"write,omitempty"`
	Addr    int64           `json:"addr"`
	Val     int64           `json:"val"`
	Instr   ir.InstrPos     `json:"instr"`
	Stack   callstack.Stack `json:"stack,omitempty"`
	Step    int             `json:"step"`
}

// StableReport is one race report in stable form. The owl pipeline
// renders each report of a resumable detect stage this way, with the ID
// its detect stage credited to the engine, and binds the stored ones
// back when the next stage resumes. The state dedups them by ID, and
// their IDs are the seen set a resumed engine starts from.
type StableReport struct {
	ID       string       `json:"id"`
	Prev     StableAccess `json:"prev"`
	Cur      StableAccess `json:"cur"`
	AddrName string       `json:"addr_name,omitempty"`
	Count    int          `json:"count"`
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
// pairs in sorted order (so identical states marshal to identical
// bytes), the stored reports in their first-seen order (which is part
// of the state: a resumed detect stage returns them in it), plus the
// exploration count. Export produces the full
// state; TakeDelta produces the growth since the last drain, whose
// count is still absolute, not an increment, so that folding any
// suffix of deltas on top of any checkpoint converges to
// the same counters. The snapshot cache is deliberately absent —
// machine snapshots are in-memory page images and are rebuilt from
// scratch after a restart.
type StateSnapshot struct {
	Pairs        []StablePair   `json:"pairs,omitempty"`
	Reports      []StableReport `json:"reports,omitempty"`
	Explorations int            `json:"explorations"`
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
	snap.Reports = append([]StableReport(nil), s.reports...)
	return snap
}

// SetJournal switches delta journaling on or off. With the journal on,
// every Absorb and Merge records which pairs and reports were new; TakeDelta drains them. Off (the default) keeps Absorb
// allocation-free for callers that never persist.
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
// TakeDelta (or SetJournal) — pairs sorted, reports in the order they
// were stored — with the absolute exploration count stamped
// in. Returns nil when journaling is off or nothing accumulated.
func (s *ExploreState) TakeDelta() *StateSnapshot {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.journal
	if j == nil || (len(j.Pairs) == 0 && len(j.Reports) == 0 && j.Explorations == 0) {
		return nil
	}
	s.journal = &StateSnapshot{}
	sortPairs(j.Pairs)
	j.Explorations = s.explorations
	return j
}

// Merge folds a snapshot into the state: a checkpoint or WAL delta at
// recovery, or a peer's checkpoint. It re-binds every pair against the
// frozen module m and refuses to guess: any pair or stored report
// access that does not resolve (the snapshot was taken from a different
// program), or a stored report without an ID, fails the whole merge
// with the state untouched. Pairs and reports union in (set semantics;
// reports whose ID the state does not hold are appended in the
// snapshot's order), Explorations takes the max (both sides count real
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
	for i, r := range snap.Reports {
		if r.ID == "" {
			return false, fmt.Errorf("sched: merge: stored report %d has no ID", i)
		}
		for _, pos := range [2]ir.InstrPos{r.Prev.Instr, r.Cur.Instr} {
			if m.InstrAtPos(pos) == nil {
				return false, fmt.Errorf("sched: merge: stored report %d access %s does not resolve in module %s",
					i, pos, m.Name)
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	changed := s.fold(resolved, func(i int) StablePair { return snap.Pairs[i] }, snap.Reports)
	if snap.Explorations > s.explorations {
		s.explorations = snap.Explorations
		changed = true
		if s.journal != nil {
			s.journal.Explorations = s.explorations
		}
	}
	return changed, nil
}
