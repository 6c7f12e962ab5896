// Interleaving-coverage tracking for coverage-guided schedule
// exploration. The coverage unit is a context-switch point: the ordered
// pair (last instruction the outgoing thread executed, first instruction
// the incoming thread executes) observed at a scheduler-visible thread
// switch. Two executions that switch between the same instruction pairs
// exercise the same interleaving structure, so a run that adds no new
// pairs to the map has (very likely) re-observed schedules the detector
// already saw — the signal the exploration Engine uses to reallocate its
// run budget and to stop early on saturation.
package sched

import (
	"maps"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
)

// covKey is one coverage map entry: an (instruction, instruction) pair at
// a context-switch point. Keys are instruction identities, so the map is
// meaningful only within one frozen module (which is how the Engine uses
// it: one Coverage per exploration).
type covKey struct {
	from, to *ir.Instr
}

// Coverage is the global interleaving-coverage map of one exploration:
// the set of (instruction-pair, context-switch point) keys observed
// across every run so far. It is not safe for concurrent use; the Engine
// merges per-run maps into it sequentially, in job order, which is what
// keeps coverage scores — and therefore budget allocation — independent
// of the worker count.
type Coverage struct {
	pairs map[covKey]struct{}
	// free holds merged runs' pair sets, cleared, for NewRun to reuse:
	// growing a new set for every run was a quarter of what an
	// explore-light job allocated.
	free []map[covKey]struct{}
}

// NewCoverage returns an empty coverage map.
func NewCoverage() *Coverage {
	return &Coverage{pairs: make(map[covKey]struct{})}
}

// Pairs returns the number of distinct context-switch pairs observed.
func (c *Coverage) Pairs() int { return len(c.pairs) }

// NewRun returns an empty per-run recorder to attach to one machine via
// interp.Config.SwitchObservers.
func (c *Coverage) NewRun() *RunCoverage {
	if n := len(c.free); n > 0 {
		pairs := c.free[n-1]
		c.free = c.free[:n-1]
		return &RunCoverage{pairs: pairs}
	}
	return &RunCoverage{pairs: make(map[covKey]struct{})}
}

// recycle hands a merged run's pair set back for NewRun to reuse; rc
// must not be used after.
func (c *Coverage) recycle(rc *RunCoverage) {
	clear(rc.pairs)
	c.free = append(c.free, rc.pairs)
	rc.pairs = nil
}

// Merge folds one run's pairs into the global map and returns how many of
// them were new.
func (c *Coverage) Merge(rc *RunCoverage) int {
	fresh := 0
	for k := range rc.pairs {
		if _, ok := c.pairs[k]; ok {
			continue
		}
		c.pairs[k] = struct{}{}
		fresh++
	}
	return fresh
}

// RunCoverage records the context-switch pairs of a single execution. It
// implements interp.SwitchObserver; each machine run gets its own
// recorder, so workers share nothing and the Engine can merge results
// deterministically afterwards.
type RunCoverage struct {
	pairs map[covKey]struct{}
	// mark is the pair count at the open spin period's start.
	mark int
}

var _ interp.SpinObserver = (*RunCoverage)(nil)

// OnSwitch implements interp.SwitchObserver.
func (rc *RunCoverage) OnSwitch(m *interp.Machine, from, to interp.ThreadID, fromInstr, toInstr *ir.Instr) {
	rc.pairs[covKey{from: fromInstr, to: toInstr}] = struct{}{}
}

// MarkSpin implements interp.SpinObserver.
func (rc *RunCoverage) MarkSpin() { rc.mark = len(rc.pairs) }

// SpinQuiet implements interp.SpinObserver: a period is quiet when it
// added no new pair, so a repetition of its switches adds none either.
func (rc *RunCoverage) SpinQuiet() bool { return len(rc.pairs) == rc.mark }

// SkipSpin implements interp.SpinObserver: the pairs are a set, so
// repetitions of a quiet period change nothing.
func (rc *RunCoverage) SkipSpin(k int) {}

// Len returns the number of distinct pairs this run observed.
func (rc *RunCoverage) Len() int { return len(rc.pairs) }

// covSnap is the captured pair set of a Coverage or RunCoverage.
type covSnap struct {
	pairs map[covKey]struct{}
}

func copyPairs(src map[covKey]struct{}) map[covKey]struct{} {
	dst := make(map[covKey]struct{}, len(src))
	for k := range src {
		dst[k] = struct{}{}
	}
	return dst
}

// SnapshotState implements StateForker: a run resumed from a machine
// snapshot must start with exactly the switch pairs the shared prefix
// observed, or coverage scoring would depend on whether a prefix was
// replayed or restored.
func (rc *RunCoverage) SnapshotState() any {
	return &covSnap{pairs: copyPairs(rc.pairs)}
}

// RestoreState implements StateForker.
func (rc *RunCoverage) RestoreState(state any) bool {
	s, ok := state.(*covSnap)
	if !ok {
		return false
	}
	clear(rc.pairs)
	maps.Copy(rc.pairs, s.pairs)
	return true
}

// Snapshot captures the global coverage map (same copy-on-restore
// contract as RunCoverage.SnapshotState; exposed for forked explorations
// and tests).
func (c *Coverage) Snapshot() any {
	return &covSnap{pairs: copyPairs(c.pairs)}
}

// Restore replaces the map with a Snapshot's content.
func (c *Coverage) Restore(state any) bool {
	s, ok := state.(*covSnap)
	if !ok {
		return false
	}
	c.pairs = copyPairs(s.pairs)
	return true
}
