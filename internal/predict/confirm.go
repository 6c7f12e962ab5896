package predict

import (
	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/race"
	"github.com/conanalysis/owl/internal/sched"
)

// Candidate is one prediction queued for dynamic confirmation: the pair
// and the decided prefix of the run that predicted it — every
// scheduling decision taken strictly before the pair's earlier access.
// Replaying the prefix re-establishes the machine state in which the
// prediction holds; steering does the rest.
type Candidate struct {
	Pair   Pair
	Prefix []int
}

// PrefixFor cuts the decided prefix for a pair out of the predicting
// run's decision trace. Decisions carry the machine step they were
// taken at, so the cut is exact: everything before the earlier access
// replays, and the first decision at or after it is left to steering.
func PrefixFor(decisions []sched.Decision, p Pair) []int {
	var pre []int
	for _, d := range decisions {
		if int(d.Step) >= p.A.Step {
			break
		}
		pre = append(pre, int(d.Chosen))
	}
	return pre
}

// DefaultHoldBudget bounds the steps each steering phase of a
// confirmation run may spend before the pair is declared refuted. It
// exists to keep a mispredicted pair from consuming a whole run budget:
// a genuine pair needs only the steps between the prefix end and the
// two accesses.
const DefaultHoldBudget = 20000

// Confirmer replays steered schedules that try to realize predicted
// pairs. A pair is confirmed only when the replay's own happens-before
// detector reports it — prediction never reaches a report directly, so
// the optimistic arm's unsoundness cannot produce false positives.
type Confirmer struct {
	// Snap, when non-nil, resumes each replay from the deepest cached
	// prefix of the predicting run (shared with the seed exploration);
	// nil replays from step 0.
	Snap *sched.SnapCache
	// HoldBudget overrides DefaultHoldBudget when positive.
	HoldBudget int
}

// Confirm runs one steered replay for the candidate. It returns every
// race the replay's detector observed (already deduplicated; races
// beyond the predicted pair are genuine finds and worth merging), and
// whether the predicted pair itself was among them. The replay is
// deterministic, so a confirmed pair is replayable evidence.
//
// cfg supplies the program (Module, Entry, Args, Inputs, MaxSteps);
// Confirm owns Sched and the observer slots. The observer composition
// — detector, recorder, coverage — deliberately matches the seed
// exploration's, so snapshot-cache entries restore cleanly across the
// two phases.
func (c *Confirmer) Confirm(cfg interp.Config, cand Candidate) ([]*race.Report, bool, error) {
	d := race.NewDetector()
	rec := NewRecorder()
	cov := sched.NewCoverage().NewRun()
	ds := &sched.DecisionSched{Decisions: cand.Prefix}
	ss := &sched.SteerSched{DS: ds}
	cfg.Sched = ss
	cfg.Observers = []interp.Observer{d, rec}
	cfg.SwitchObservers = []interp.SwitchObserver{cov}

	m, err := c.Snap.Restore(cfg, ds)
	if err != nil {
		return nil, false, err
	}

	// Phase 1: replay the decided prefix (a restored machine starts with
	// part of it already consumed). The prefix comes from a real run, so
	// it can only fall short if the machine halts early — fault-truncated
	// step budgets, typically.
	for len(ds.Trace) < len(ds.Decisions) {
		if !m.Step() {
			return d.Reports(), pairIn(d.Reports(), cand.Pair), nil
		}
	}

	tA, tB := cand.Pair.A.TID, cand.Pair.B.TID
	inA, inB := cand.Pair.A.Instr, cand.Pair.B.Instr
	hb := c.HoldBudget
	if hb <= 0 {
		hb = DefaultHoldBudget
	}
	scanA := &evScan{pos: len(rec.Events())}
	scanB := &evScan{pos: len(rec.Events())}

	// Phase 2: park the earlier access's thread and drive the other
	// until its racing instruction is the next thing it would execute.
	ss.Steer(tA, tB)
	for i := 0; ; i++ {
		if pa, ok := m.Pending(tB); ok && pa.Instr == inB {
			break
		}
		if i >= hb || !m.Step() {
			return d.Reports(), pairIn(d.Reports(), cand.Pair), nil
		}
	}

	// Phase 3: freeze B at its access and let A's thread perform its
	// side of the pair.
	ss.Steer(tB, tA)
	for i := 0; !scanA.hit(rec.Events(), tA, inA); i++ {
		if i >= hb || !m.Step() {
			return d.Reports(), pairIn(d.Reports(), cand.Pair), nil
		}
	}

	// Phase 4: release B. If the prediction is real, its very next
	// access races with the one A just performed and the detector
	// reports the pair.
	ss.Steer(tA, tB)
	for i := 0; !scanB.hit(rec.Events(), tB, inB); i++ {
		if i >= hb || !m.Step() {
			break
		}
	}
	return d.Reports(), pairIn(d.Reports(), cand.Pair), nil
}

// pairIn reports whether the pair's identity appears among the reports.
func pairIn(reports []*race.Report, p Pair) bool {
	id := p.ID()
	for _, r := range reports {
		if r.ID() == id {
			return true
		}
	}
	return false
}

// evScan is an advancing cursor over a recorder's trace, used to detect
// that a specific thread executed a specific access at or after the
// scan's starting point. Each phase owns its own cursor so out-of-order
// executions (a steering phase forced to run the held thread) are still
// seen.
type evScan struct {
	pos int
}

func (s *evScan) hit(events []Ev, tid interp.ThreadID, instr *ir.Instr) bool {
	for ; s.pos < len(events); s.pos++ {
		e := events[s.pos]
		if e.TID == tid && e.Instr == instr && (e.Kind == interp.EvRead || e.Kind == interp.EvWrite) {
			s.pos++
			return true
		}
	}
	return false
}
