package sched

import (
	"fmt"
	"math"

	"github.com/conanalysis/owl/internal/interp"
)

// Decision is one scheduling decision point: how many threads were
// runnable and which index was chosen. SameIdx is the runnable index of
// the thread that executed the previous step (-1 when it was blocked or
// done), so a consumer can tell which choices would have been
// preemptions: any Chosen != SameIdx with SameIdx >= 0 switched away from
// a thread that could have kept running. Step is the machine step at
// which the decision was taken, letting a consumer cut a replayable
// prefix at any event of the run (predictive confirmation replays every
// decision taken strictly before a racing access).
//
// The fields are 32-bit: a run records one Decision per multi-runnable
// step, and the traces of an exploration round's in-flight runs are the
// largest live data an exploration holds. Step cannot overflow in
// practice: the machine keeps one schedule-trace entry per step, which
// would need 16 GiB before a run reached 2^31 steps.
type Decision struct {
	Choices int32
	Chosen  int32
	SameIdx int32
	Step    int32
}

// newDecision records one multi-runnable point.
func newDecision(choices, chosen, sameIdx, step int) Decision {
	return Decision{Choices: int32(choices), Chosen: int32(chosen), SameIdx: int32(sameIdx), Step: int32(step)}
}

// DecisionSched drives the machine from an explicit decision vector: at
// each point where more than one thread is runnable it consumes one
// decision and records what it did. Past the end of the vector it takes
// the non-preemptive default: keep running the previous thread while it
// stays runnable, else fall back to index 0. The non-preemptive tail is
// what makes preemption bounding meaningful — a schedule's executed
// Preemptions equals the preemptions of its decided prefix, because the
// default completion never adds any. It is the building block of
// systematic exploration.
//
// The zero value records every decision point in Trace. The exploration
// Engine bounds its DFS jobs' traces to the depth its frontier and
// snapshot cache read (limit): past it, Next still advances the
// decision position, Preemptions and the last-thread state, but stops
// recording.
type DecisionSched struct {
	Decisions []int
	pos       int
	limit     int // record at most limit decisions; 0 records all
	Trace     []Decision
	// Preemptions counts decisions that switched away from a thread that
	// was still runnable (the bounding quantity of CHESS-style iterative
	// preemption bounding).
	Preemptions int

	lastTID interp.ThreadID
	hasLast bool
}

// DecisionState is the resumable state of a DecisionSched at a decision
// boundary. It pairs with an interp.Snapshot taken at the same step so
// prefix-sharing exploration (SnapCache) can resume a sibling schedule
// from the deepest cached ancestor instead of replaying from step 0.
type DecisionState struct {
	Trace       []Decision
	Preemptions int
	LastTID     interp.ThreadID
	HasLast     bool
}

// State captures the scheduler's position. The Trace slice is clipped,
// so later appends by either side don't alias. A bounded scheduler's
// state is only captured below its bound, where Trace holds every
// decision consumed.
func (s *DecisionSched) State() DecisionState {
	return DecisionState{
		Trace:       s.Trace[:len(s.Trace):len(s.Trace)],
		Preemptions: s.Preemptions,
		LastTID:     s.lastTID,
		HasLast:     s.hasLast,
	}
}

// SetState positions the scheduler at a captured decision boundary,
// keeping its Decisions vector: the next decision point consumed is the
// one at depth len(st.Trace). The captured state must come from an
// execution whose Chosen prefix matches this scheduler's Decisions
// (which is exactly what SnapCache's prefix keying guarantees).
func (s *DecisionSched) SetState(st DecisionState) {
	s.Trace = st.Trace
	s.pos = len(st.Trace)
	s.Preemptions = st.Preemptions
	s.lastTID, s.hasLast = st.LastTID, st.HasLast
}

// Next implements interp.Scheduler.
func (s *DecisionSched) Next(runnable []interp.ThreadID, step int) interp.ThreadID {
	if len(runnable) == 1 {
		s.lastTID, s.hasLast = runnable[0], true
		return runnable[0]
	}
	sameIdx := -1
	if s.hasLast {
		for i, id := range runnable {
			if id == s.lastTID {
				sameIdx = i
				break
			}
		}
	}
	choice := 0
	if s.pos < len(s.Decisions) {
		choice = s.Decisions[s.pos]
	} else if sameIdx >= 0 {
		choice = sameIdx // non-preemptive default
	}
	s.pos++
	if choice >= len(runnable) {
		choice = len(runnable) - 1
	}
	if choice < 0 {
		// Hand-edited or corrupted decision vectors (e.g. a replayed JSON
		// trace) may carry negative entries; without this clamp the
		// runnable[choice] below panics with index-out-of-range.
		choice = 0
	}
	if sameIdx >= 0 && choice != sameIdx {
		s.Preemptions++
	}
	if s.limit == 0 || len(s.Trace) < s.limit {
		s.Trace = append(s.Trace, newDecision(len(runnable), choice, sameIdx, step))
	}
	s.lastTID, s.hasLast = runnable[choice], true
	return runnable[choice]
}

// Hold implements interp.HoldingScheduler. A lone runnable thread is
// always the pick. Past its vector and its recording bound the
// scheduler keeps the last thread for as long as it stays runnable:
// each pick then takes the non-preemptive default and records nothing.
// An unbounded scheduler (limit 0) records every decision, so it holds
// only a lone thread.
func (s *DecisionSched) Hold(runnable []interp.ThreadID, step int) (interp.ThreadID, int, bool) {
	if len(runnable) == 1 {
		return runnable[0], math.MaxInt, true
	}
	if s.pos < len(s.Decisions) || s.limit == 0 || len(s.Trace) < s.limit || !s.hasLast {
		return 0, 0, false
	}
	for _, id := range runnable {
		if id == s.lastTID {
			return id, math.MaxInt, true
		}
	}
	return 0, 0, false
}

// Skip implements interp.HoldingScheduler: k held picks move only the
// decision position (every pick among several threads consumes one)
// and the last thread.
func (s *DecisionSched) Skip(runnable []interp.ThreadID, step, k int) {
	if k == 0 {
		return
	}
	if len(runnable) == 1 {
		s.lastTID, s.hasLast = runnable[0], true
		return
	}
	s.pos += k
}

// Explorer performs bounded systematic schedule exploration (the SKI-style
// substrate): depth-first search over the tree of scheduling decisions,
// bounded by MaxRuns total executions and MaxDecisions branch points per
// execution (decision points beyond the bound always take choice 0).
type Explorer struct {
	// MaxRuns bounds the number of executions (default 256).
	MaxRuns int
	// MaxDecisions bounds the branching depth explored (default 12).
	MaxDecisions int
	// Snap, when non-nil, lets ExploreIPBRun resume each schedule from
	// the deepest snapshotted ancestor prefix instead of replaying it
	// from step 0. Exploration order and results are unaffected (see
	// SnapCache); only the work per run shrinks.
	Snap *SnapCache
}

// DefaultMaxDecisions is the branching-depth bound used when a caller
// leaves MaxDecisions at zero (Explorer, EngineConfig, ipbFrontier, and
// SnapCache all share it so prefix keys and frontier depths agree).
const DefaultMaxDecisions = 12

// ExploreResult summarizes an exploration.
type ExploreResult struct {
	Runs      int
	Exhausted bool // true if the full bounded tree was covered
}

// Explore runs mkRun once per schedule in the bounded tree. mkRun must
// construct a fresh machine wired to the provided scheduler, run it, and
// may inspect it (typically: attach a race detector). The scheduler
// records only the first MaxDecisions decisions of its trace, the ones
// the search expands. Exploration is deterministic.
func (e *Explorer) Explore(mkRun func(s interp.Scheduler) error) (ExploreResult, error) {
	maxRuns := e.MaxRuns
	if maxRuns <= 0 {
		maxRuns = 256
	}
	maxDec := e.MaxDecisions
	if maxDec <= 0 {
		maxDec = DefaultMaxDecisions
	}

	stack := [][]int{{}}
	res := ExploreResult{}
	for len(stack) > 0 {
		if res.Runs >= maxRuns {
			return res, nil
		}
		d := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		s := &DecisionSched{Decisions: d, limit: maxDec}
		if err := mkRun(s); err != nil {
			return res, fmt.Errorf("exploration run %d: %w", res.Runs, err)
		}
		res.Runs++

		siblings(d, s.Trace, maxDec, func(next []int, _, _ int) {
			stack = append(stack, next)
		})
	}
	res.Exhausted = true
	return res, nil
}

// siblings calls yield for the unexplored siblings of every decision
// point at or beyond vec's frontier, within the first maxDec decisions
// of the run's trace: deepest point first, highest choice first.
// Positions between vec and the branch point p pin the defaults the run
// actually took, so the child replays the same prefix and then takes
// choice c at p.
func siblings(vec []int, trace []Decision, maxDec int, yield func(next []int, p, c int)) {
	for p := min(len(trace), maxDec) - 1; p >= len(vec); p-- {
		for c := int(trace[p].Choices) - 1; c >= 0; c-- {
			if c == int(trace[p].Chosen) {
				continue
			}
			next := make([]int, p+1)
			copy(next, vec)
			for q := len(vec); q < p; q++ {
				next[q] = int(trace[q].Chosen)
			}
			next[p] = c
			yield(next, p, c)
		}
	}
}

// ipbNode is one pending schedule of a preemption-ordered exploration:
// the decision prefix and the number of preemptions that prefix performs.
type ipbNode struct {
	vec []int
	pre int
}

// ipbFrontier is a deterministic bucket priority queue over pending
// decision vectors, keyed by preemption count. Within a bucket, vectors
// pop in LIFO order, preserving the depth-first character of Explore. It
// is shared between ExploreIPBRun and the Engine's DFS strategy (which
// pops nodes round by round instead of in one loop).
type ipbFrontier struct {
	maxDec  int
	buckets map[int][]ipbNode
	minPre  int
	size    int
}

func newIPBFrontier(maxDec int) *ipbFrontier {
	if maxDec <= 0 {
		maxDec = DefaultMaxDecisions
	}
	f := &ipbFrontier{maxDec: maxDec, buckets: map[int][]ipbNode{}}
	f.push(ipbNode{})
	return f
}

func (f *ipbFrontier) push(n ipbNode) {
	if f.size == 0 || n.pre < f.minPre {
		f.minPre = n.pre
	}
	f.buckets[n.pre] = append(f.buckets[n.pre], n)
	f.size++
}

// pop removes and returns a pending node with the lowest preemption
// count.
func (f *ipbFrontier) pop() (ipbNode, bool) {
	if f.size == 0 {
		return ipbNode{}, false
	}
	for len(f.buckets[f.minPre]) == 0 {
		f.minPre++
	}
	b := f.buckets[f.minPre]
	n := b[len(b)-1]
	f.buckets[f.minPre] = b[:len(b)-1]
	f.size--
	return n, true
}

// expand pushes the unexplored siblings of the executed node (see
// siblings, the rule Explore follows too), tagging each child with the
// preemption count of its decided prefix.
func (f *ipbFrontier) expand(node ipbNode, trace []Decision) {
	limit := min(len(trace), f.maxDec)
	if limit <= len(node.vec) {
		return
	}
	// preAt[p] = preemptions performed by the first p executed decisions.
	preAt := make([]int, limit+1)
	for p := 0; p < limit; p++ {
		preAt[p+1] = preAt[p]
		if d := trace[p]; d.SameIdx >= 0 && d.Chosen != d.SameIdx {
			preAt[p+1]++
		}
	}
	siblings(node.vec, trace, f.maxDec, func(next []int, p, c int) {
		pre := preAt[p]
		if trace[p].SameIdx >= 0 && c != int(trace[p].SameIdx) {
			pre++
		}
		f.push(ipbNode{vec: next, pre: pre})
	})
}
