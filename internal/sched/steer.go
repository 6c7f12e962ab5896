package sched

import "github.com/conanalysis/owl/internal/interp"

// SteerSched drives a machine toward a predicted racing pair: it first
// replays a decided prefix through the embedded DecisionSched, then
// switches to hold/prefer steering — keep one thread parked just before
// its access while driving the other to its side of the race, then
// release. It is the scheduler behind predictive confirmation
// (internal/predict): the prefix re-establishes the state in which the
// pair was predicted, and the steering phase tries to make the two
// accesses adjacent. Steering is deterministic, so a confirmation run is
// replayable like any other schedule.
type SteerSched struct {
	// DS supplies the decided prefix (its Decisions vector) and records
	// the decisions actually taken, prefix and steering phases alike.
	DS *DecisionSched

	hold      interp.ThreadID
	prefer    interp.ThreadID
	hasHold   bool
	hasPrefer bool
}

// Steer sets the steering targets used once the decided prefix is
// consumed: runnable threads other than hold are preferred, and among
// them prefer wins when runnable. Call it again to flip the roles
// between confirmation phases.
func (s *SteerSched) Steer(hold, prefer interp.ThreadID) {
	s.hold, s.hasHold = hold, true
	s.prefer, s.hasPrefer = prefer, true
}

// Next implements interp.Scheduler.
func (s *SteerSched) Next(runnable []interp.ThreadID, step int) interp.ThreadID {
	if len(s.DS.Trace) < len(s.DS.Decisions) || !s.hasHold {
		return s.DS.Next(runnable, step)
	}
	choice := -1
	if s.hasPrefer {
		for i, id := range runnable {
			if id == s.prefer {
				choice = i
				break
			}
		}
	}
	if choice < 0 {
		for i, id := range runnable {
			if id != s.hold {
				choice = i
				break
			}
		}
	}
	if choice < 0 {
		// Only the held thread is runnable: it must run or the machine
		// stalls. The confirmation driver notices the overrun via its
		// event scan and gives up on the pair.
		choice = 0
	}
	return s.steered(runnable, choice, step)
}

// steered routes a steering choice through the DecisionSched so the
// decision trace, preemption count, and last-thread tracking stay
// exactly as if the choice had come from a decision vector.
func (s *SteerSched) steered(runnable []interp.ThreadID, choice int, step int) interp.ThreadID {
	ds := s.DS
	if len(runnable) == 1 {
		ds.lastTID, ds.hasLast = runnable[0], true
		return runnable[0]
	}
	sameIdx := -1
	if ds.hasLast {
		for i, id := range runnable {
			if id == ds.lastTID {
				sameIdx = i
				break
			}
		}
	}
	if sameIdx >= 0 && choice != sameIdx {
		ds.Preemptions++
	}
	ds.pos++
	ds.Trace = append(ds.Trace, newDecision(len(runnable), choice, sameIdx, step))
	ds.lastTID, ds.hasLast = runnable[choice], true
	return runnable[choice]
}

// TraceSched wraps any scheduler and records the decisions it takes in
// the same format DecisionSched produces — one Decision per
// multi-runnable point, single-runnable steps unrecorded — so schedules
// driven by non-vector strategies (random, PCT) also yield a decided
// prefix that DecisionSched or SteerSched can replay exactly.
type TraceSched struct {
	Inner interp.Scheduler
	Trace []Decision

	lastTID interp.ThreadID
	hasLast bool
}

// Next implements interp.Scheduler.
func (s *TraceSched) Next(runnable []interp.ThreadID, step int) interp.ThreadID {
	id := s.Inner.Next(runnable, step)
	if len(runnable) > 1 {
		chosen, sameIdx := 0, -1
		for i, r := range runnable {
			if r == id {
				chosen = i
			}
			if s.hasLast && r == s.lastTID {
				sameIdx = i
			}
		}
		s.Trace = append(s.Trace, newDecision(len(runnable), chosen, sameIdx, step))
	}
	s.lastTID, s.hasLast = id, true
	return id
}
