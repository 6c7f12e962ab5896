package sched

import (
	"fmt"

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
type DecisionSched struct {
	Decisions []int
	pos       int
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
// so later appends by either side don't alias.
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
	s.Trace = append(s.Trace, newDecision(len(runnable), choice, sameIdx, step))
	s.lastTID, s.hasLast = runnable[choice], true
	return runnable[choice]
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
// may inspect it (typically: attach a race detector). Exploration is
// deterministic.
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

		s := &DecisionSched{Decisions: d}
		if err := mkRun(s); err != nil {
			return res, fmt.Errorf("exploration run %d: %w", res.Runs, err)
		}
		res.Runs++

		// Schedule the unexplored siblings of every decision point at or
		// beyond this vector's frontier, within the depth bound. Positions
		// between the vector and the branch point pin the defaults this run
		// actually took, so the child replays the same prefix.
		limit := len(s.Trace)
		if limit > maxDec {
			limit = maxDec
		}
		for p := limit - 1; p >= len(d); p-- {
			for c := int(s.Trace[p].Choices) - 1; c >= 0; c-- {
				if c == int(s.Trace[p].Chosen) {
					continue
				}
				next := make([]int, p+1)
				copy(next, d)
				for q := len(d); q < p; q++ {
					next[q] = int(s.Trace[q].Chosen)
				}
				next[p] = c
				stack = append(stack, next)
			}
		}
	}
	res.Exhausted = true
	return res, nil
}

// ExploreIPB explores the same bounded tree as Explore, but in iterative
// preemption-bounding order (CHESS): every reachable 0-preemption
// schedule runs before any 1-preemption schedule, which runs before any
// 2-preemption schedule, and so on. Most concurrency bugs trigger with
// very few preemptions, so under a tight run budget this ordering spends
// it where the payoff density is highest. The preemption count of a
// schedule is the number of decided points that switched away from a
// still-runnable thread; decision points past the decided prefix take the
// non-preemptive default, so the executed preemption count equals the
// prefix count and the run order genuinely ascends by preemptions.
// Exploration order is deterministic.
func (e *Explorer) ExploreIPB(mkRun func(s interp.Scheduler) error) (ExploreResult, error) {
	maxRuns := e.MaxRuns
	if maxRuns <= 0 {
		maxRuns = 256
	}
	f := newIPBFrontier(e.MaxDecisions)
	res := ExploreResult{}
	for f.size > 0 {
		if res.Runs >= maxRuns {
			return res, nil
		}
		node, _ := f.pop()
		s := &DecisionSched{Decisions: node.vec}
		if err := mkRun(s); err != nil {
			return res, fmt.Errorf("exploration run %d: %w", res.Runs, err)
		}
		res.Runs++
		f.expand(node, s.Trace)
	}
	res.Exhausted = true
	return res, nil
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
// is shared between ExploreIPB and the Engine's DFS strategy (which pops
// nodes round by round instead of in one loop).
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

// expand generates the unexplored siblings of every decision point at or
// beyond the executed node's frontier (exactly as Explore does), tagging
// each child with the preemption count of its decided prefix.
func (f *ipbFrontier) expand(node ipbNode, trace []Decision) {
	limit := len(trace)
	if limit > f.maxDec {
		limit = f.maxDec
	}
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
	for p := limit - 1; p >= len(node.vec); p-- {
		for c := int(trace[p].Choices) - 1; c >= 0; c-- {
			if c == int(trace[p].Chosen) {
				continue
			}
			next := make([]int, p+1)
			copy(next, node.vec)
			for q := len(node.vec); q < p; q++ {
				next[q] = int(trace[q].Chosen)
			}
			next[p] = c
			pre := preAt[p]
			if trace[p].SameIdx >= 0 && c != int(trace[p].SameIdx) {
				pre++
			}
			f.push(ipbNode{vec: next, pre: pre})
		}
	}
}
