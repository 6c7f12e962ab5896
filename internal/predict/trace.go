// Package predict implements predictive race detection: instead of
// paying one full schedule execution per interleaving inspected, it
// records one synchronization-annotated trace per executed seed
// schedule, predicts which access pairs a *reordering* of that trace
// could make race, and spends further executions only on steered
// replays that confirm or refute each prediction.
//
// The predictor is the sync-preserving closure of Mathur, Pavlogiannis
// and Viswanathan ("Optimal Prediction of Synchronization-Preserving
// Races"), approximated with vector clocks over the captured
// acquire/release/fork/join order; an optimistic sync-reversal arm
// (Shi, Mathur, Pavlogiannis) behind a flag drops the remaining
// critical-section ordering edges for more candidates. Both arms can
// over-approximate, so nothing is reported from a prediction alone —
// every pair is dynamically confirmed by a steered replay whose
// happens-before detector must independently flag it (Confirmer).
package predict

import (
	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
)

// Ev is one recorded trace event: the synchronization-relevant subset
// of an interp.Event, small enough to retain per run. Aux carries the
// peer thread id for spawn/join, mirroring interp.Event.
type Ev struct {
	Kind  interp.EventKind
	TID   interp.ThreadID
	Addr  int64
	Aux   int64
	Instr *ir.Instr
	Step  int
}

// Recorder is the trace-capturing observer. It retains reads, writes,
// acquires, releases, spawns and joins in execution order and discards
// everything else. It declares no stack need (StackPolicy), so
// attaching it adds no hot-path cost beyond the append; when
// prediction is off it simply isn't attached.
type Recorder struct {
	events []Ev
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Events returns the captured trace in execution order. The slice is
// the recorder's own backing store; callers must not mutate it.
func (r *Recorder) Events() []Ev { return r.events }

// OnEvent implements interp.Observer.
func (r *Recorder) OnEvent(m *interp.Machine, e *interp.Event) {
	switch e.Kind {
	case interp.EvRead, interp.EvWrite, interp.EvAcquire, interp.EvRelease,
		interp.EvSpawn, interp.EvJoin:
		r.events = append(r.events, Ev{
			Kind:  e.Kind,
			TID:   e.TID,
			Addr:  e.Addr,
			Aux:   e.Aux,
			Instr: e.Instr,
			Step:  e.Step,
		})
	}
}

// NeedsStack implements interp.StackPolicy: the predictor works on
// instruction identity alone, so no event needs a materialized stack.
func (r *Recorder) NeedsStack(kind interp.EventKind) bool { return false }

// recSnap is an immutable prefix of a recorder's trace, captured at a
// snapshot boundary. The clip makes later appends by any recorder
// holding it reallocate instead of aliasing.
type recSnap struct {
	events []Ev
}

// SnapshotState implements sched.StateForker, so recorded runs stay
// eligible for prefix-sharing snapshot-cache resumption: a restored
// run's trace is exactly the boundary prefix plus its own suffix.
func (r *Recorder) SnapshotState() any {
	return &recSnap{events: r.events[:len(r.events):len(r.events)]}
}

// RestoreState implements sched.StateForker.
func (r *Recorder) RestoreState(state any) bool {
	s, ok := state.(*recSnap)
	if !ok {
		return false
	}
	r.events = s.events
	return true
}
