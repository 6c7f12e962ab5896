// Prefix-sharing schedule exploration. Systematic exploration replays
// the same decision prefixes over and over: every sibling of a decision
// point re-executes the whole run up to that point before deviating.
// SnapCache removes the replay: after a run passes a decision boundary,
// the machine (copy-on-write arena snapshot), the decision scheduler,
// and every attached observer are snapshotted under the executed Chosen
// prefix; a later schedule whose decision vector extends a cached prefix
// restores from the deepest such ancestor and executes only its suffix.
//
// Correctness rests on the interpreter's determinism: two runs with the
// same Chosen prefix are in byte-identical states at the boundary, and
// snapshot/restore is exact (enforced by the interp and detector
// fidelity tests), so a resumed run produces the same reports, coverage
// pairs, and counters as a from-scratch run. Which worker's snapshot
// lands in the cache is therefore irrelevant, and exploration results
// stay byte-identical with the cache on or off and across worker counts
// — only the snapshot counters themselves differ.
package sched

import (
	"container/list"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"github.com/conanalysis/owl/internal/interp"
)

// StateForker is implemented by observers whose dynamic state can fork
// along with a machine snapshot (race.Detector, atomicity.Detector,
// RunCoverage). SnapshotState returns an opaque immutable copy;
// RestoreState replaces the observer's state with a previously captured
// copy, reporting false if the value is not one of its snapshots. A run
// is only resumed from a snapshot when every attached observer forks.
type StateForker interface {
	SnapshotState() any
	RestoreState(state any) bool
}

// ErrSnapObserverMismatch is returned when a cached entry's observer
// states cannot be applied to the current run's observers — the caller
// attached a different observer composition to runs sharing one cache.
var ErrSnapObserverMismatch = errors.New("sched: snapshot cache observer state mismatch")

// snapEntry is one cached resume point. All fields are immutable after
// insertion; eviction only drops references.
type snapEntry struct {
	key     string
	steps   int // machine steps executed at the boundary
	machine *interp.Snapshot
	sched   DecisionState
	obs     []any // observer states, in Observers-then-SwitchObservers order
	elem    *list.Element
}

// SnapStats is a point-in-time copy of a cache's counters, consumed by
// the metrics layer (sched.snap_* and interp.cow_pages_copied).
type SnapStats struct {
	Hits       int64 // runs resumed from a cached ancestor
	Misses     int64 // snapshot-eligible runs that started from step 0
	Stores     int64 // entries inserted
	Evictions  int64 // entries dropped by the LRU bound
	StepsSaved int64 // machine steps skipped by resuming
	CowPages   int64 // arena pages copied by copy-on-write faults
}

// SnapCache is a bounded, concurrency-safe snapshot cache keyed by
// decision prefixes. Entries are capped at the NewSnapCache budget and
// evicted least-recently-used; snapshot depth is capped at
// maxDepth decision points, matching the exploration's MaxDecisions —
// deeper boundaries are never looked up, so caching them would only
// burn memory.
type SnapCache struct {
	mu       sync.Mutex
	max      int
	maxDepth int
	entries  map[string]*snapEntry
	lru      *list.List // front = most recently used
	stats    SnapStats
}

// NewSnapCache returns a cache holding at most maxEntries snapshots
// (values below 1 are raised to 1 — use a nil *SnapCache to disable
// snapshotting entirely). Depth defaults to DefaultMaxDecisions; the
// Engine and Explorer raise it to their MaxDecisions via EnsureDepth.
func NewSnapCache(maxEntries int) *SnapCache {
	if maxEntries < 1 {
		maxEntries = 1
	}
	return &SnapCache{
		max:      maxEntries,
		maxDepth: DefaultMaxDecisions,
		entries:  make(map[string]*snapEntry),
		lru:      list.New(),
	}
}

// EnsureDepth raises the snapshot depth bound to at least maxDec, so a
// cache constructed before the exploration config is known still covers
// every decision depth the frontier can branch at.
func (c *SnapCache) EnsureDepth(maxDec int) {
	if c == nil || maxDec <= 0 {
		return
	}
	c.mu.Lock()
	if maxDec > c.maxDepth {
		c.maxDepth = maxDec
	}
	c.mu.Unlock()
}

// depth returns the snapshot depth bound (0 for a nil cache).
func (c *SnapCache) depth() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxDepth
}

// Stats returns a copy of the counters.
func (c *SnapCache) Stats() SnapStats {
	if c == nil {
		return SnapStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of cached entries.
func (c *SnapCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// lookup finds the entry for the deepest cached prefix of vec (bounded
// by maxDepth) whose boundary lies within the run's step bound — a
// fault-injected run with a truncated MaxSteps must not resume past the
// point where a from-scratch run would have stopped. The hit is marked
// most recently used; the returned entry's fields are immutable, so
// using them after the lock drops is safe even if the entry is
// concurrently evicted.
func (c *SnapCache) lookup(vec []int, maxSteps int) *snapEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	depth := len(vec)
	if depth > c.maxDepth {
		depth = c.maxDepth
	}
	var best *snapEntry
	// Depth 0 — the empty prefix — is a real entry: it holds the state
	// just before the first decision, i.e. the whole deterministic
	// single-threaded run-up that every schedule shares.
	if e, ok := c.entries[""]; ok && e.steps <= maxSteps {
		best = e
	}
	key := make([]byte, 0, 4*depth)
	for d := 0; d < depth; d++ {
		key = strconv.AppendInt(key, int64(vec[d]), 10)
		key = append(key, '.')
		if e, ok := c.entries[string(key)]; ok && e.steps <= maxSteps {
			best = e
		}
	}
	if best != nil {
		c.lru.MoveToFront(best.elem)
		c.stats.Hits++
		c.stats.StepsSaved += int64(best.steps)
	} else {
		c.stats.Misses++
	}
	return best
}

// prefixKey renders the executed Chosen prefix of a trace as a cache
// key. Decisions are keyed by what actually ran, not by the (possibly
// shorter) decided vector: the frontier pins executed defaults into
// children, so their vectors extend executed prefixes.
func prefixKey(trace []Decision, depth int) string {
	key := make([]byte, 0, 4*depth)
	for d := 0; d < depth; d++ {
		key = strconv.AppendInt(key, int64(trace[d].Chosen), 10)
		key = append(key, '.')
	}
	return string(key)
}

// store inserts a boundary snapshot unless the prefix is already cached
// (first writer wins: any two snapshots under one key are equivalent by
// determinism, so keeping the incumbent avoids churn).
func (c *SnapCache) store(key string, steps int, mach *interp.Snapshot, st DecisionState, obs []any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	e := &snapEntry{key: key, steps: steps, machine: mach, sched: st, obs: obs}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.stats.Stores++
	for len(c.entries) > c.max {
		back := c.lru.Back()
		old := back.Value.(*snapEntry)
		c.lru.Remove(back)
		delete(c.entries, old.key)
		c.stats.Evictions++
	}
}

func (c *SnapCache) addCow(n int64) {
	if n == 0 {
		return
	}
	c.mu.Lock()
	c.stats.CowPages += n
	c.mu.Unlock()
}

// forkers collects the run's observers as StateForkers, in the fixed
// Observers-then-SwitchObservers order used for snapshot entries. It
// returns nil, false if any observer cannot fork — such runs execute
// from scratch and store nothing.
func forkers(cfg interp.Config) ([]StateForker, bool) {
	fs := make([]StateForker, 0, len(cfg.Observers)+len(cfg.SwitchObservers))
	for _, o := range cfg.Observers {
		f, ok := o.(StateForker)
		if !ok {
			return nil, false
		}
		fs = append(fs, f)
	}
	for _, o := range cfg.SwitchObservers {
		f, ok := o.(StateForker)
		if !ok {
			return nil, false
		}
		fs = append(fs, f)
	}
	return fs, true
}

// snapSched wraps a run's DecisionSched to snapshot decision boundaries
// as they are reached. Next runs inside Machine.Step before any of the
// step's mutations (trace append, observer switch, instruction effects),
// so when more than one thread is runnable the machine, the scheduler,
// and every observer are in exactly the boundary state a restored
// sibling needs: d decisions consumed, about to consume decision d.
// Snapshotting here — rather than after the step that consumed the
// decision — also puts the shared run-up *between* decisions (and, for
// depth 0, the whole pre-concurrency setup) inside the cached prefix.
type snapSched struct {
	ds       *DecisionSched
	c        *SnapCache
	fks      []StateForker
	m        *interp.Machine // set after interp.New/Restore, before stepping
	maxDepth int
	stores   int
}

// storeRunBudget caps how many novel boundaries one run snapshots. A
// run crosses up to maxDepth storable boundaries but the frontier pops
// its children shallowest-first, so only the few nearest the decided
// prefix are resumed from before the budget moves on; snapshotting the
// deep tail would deep-copy every observer's state for entries that are
// overwhelmingly never used. Runs resuming past a skipped depth still
// hit the deepest stored ancestor — the cap trades a sliver of saved
// steps for an order of magnitude fewer observer copies.
const storeRunBudget = 2

// Next implements interp.Scheduler.
func (s *snapSched) Next(runnable []interp.ThreadID, step int) interp.ThreadID {
	if len(runnable) > 1 && s.stores < storeRunBudget {
		// Children of the frontier branch at decision depths < maxDepth,
		// so deeper boundaries would never be looked up. The depth is
		// the decision position, not len(Trace): an engine DFS job stops
		// recording past its bound, which is never below maxDepth.
		if d := s.ds.pos; d < s.maxDepth {
			if s.c.storeBoundary(s.ds, s.m, s.fks, d) {
				s.stores++
			}
		}
	}
	return s.ds.Next(runnable, step)
}

// Hold implements interp.HoldingScheduler. It forwards the decision
// scheduler's hold once Next would store no boundary: past the deepest
// boundary the cache keys, or with the run's store budget spent.
func (s *snapSched) Hold(runnable []interp.ThreadID, step int) (interp.ThreadID, int, bool) {
	if len(runnable) > 1 && s.stores < storeRunBudget && s.ds.pos < s.maxDepth {
		return 0, 0, false
	}
	return s.ds.Hold(runnable, step)
}

// Skip implements interp.HoldingScheduler.
func (s *snapSched) Skip(runnable []interp.ThreadID, step, k int) { s.ds.Skip(runnable, step, k) }

// RunMachine executes one schedule to completion and returns the
// machine, resuming from the deepest cached ancestor of the decision
// vector when possible and feeding new decision boundaries back into
// the cache. It is the drop-in replacement for interp.New + Run in
// exploration runners; a nil cache, a non-DecisionSched scheduler, a
// breakpoint, or a non-forkable observer all degrade to exactly that.
func (c *SnapCache) RunMachine(cfg interp.Config) (*interp.Machine, error) {
	ds, isDS := cfg.Sched.(*DecisionSched)
	var fks []StateForker
	snappable := c != nil && isDS && cfg.Breakpoint == nil
	if snappable {
		fks, snappable = forkers(cfg)
	}
	if !snappable {
		m, err := interp.New(cfg)
		if err != nil {
			return nil, err
		}
		m.Run()
		return m, nil
	}

	ss := &snapSched{ds: ds, c: c, fks: fks, maxDepth: c.depth()}
	cfg.Sched = ss
	m, err := c.resume(cfg, ds, fks)
	if err != nil {
		return nil, err
	}
	ss.m = m
	m.RunLoop()
	c.addCow(m.Mem().CowPagesCopied())
	return m, nil
}

// Restore builds a machine for cfg positioned at the deepest cached
// ancestor of ds.Decisions, without running it — the entry point for
// callers that drive stepping themselves (predictive confirmation
// steers the machine after the prefix instead of running a fixed
// vector). cfg.Sched is used as given, so it may wrap ds in a steering
// scheduler; ds itself is positioned at the restored boundary. A nil
// cache, a breakpoint, a missing ancestor, or a non-forkable observer
// composition all degrade to a fresh machine at step 0. Restored-from
// entries are read-only here: driver-stepped runs never store new
// boundaries.
func (c *SnapCache) Restore(cfg interp.Config, ds *DecisionSched) (*interp.Machine, error) {
	fks, forkable := forkers(cfg)
	if c == nil || !forkable || cfg.Breakpoint != nil {
		return interp.New(cfg)
	}
	return c.resume(cfg, ds, fks)
}

// resume builds a machine for cfg at the deepest cached ancestor of
// ds.Decisions, with the observers (fks) and ds restored to that
// boundary, or a fresh machine at step 0 when no ancestor is cached.
func (c *SnapCache) resume(cfg interp.Config, ds *DecisionSched, fks []StateForker) (*interp.Machine, error) {
	bound := cfg.MaxSteps
	if bound <= 0 {
		bound = interp.DefaultMaxSteps
	}
	e := c.lookup(ds.Decisions, bound)
	if e == nil {
		return interp.New(cfg)
	}
	if len(e.obs) != len(fks) {
		return nil, ErrSnapObserverMismatch
	}
	for i, f := range fks {
		if !f.RestoreState(e.obs[i]) {
			// A partial restore would poison the run; surface it.
			return nil, ErrSnapObserverMismatch
		}
	}
	m, err := interp.Restore(e.machine, cfg)
	if err != nil {
		return nil, err
	}
	ds.SetState(e.sched)
	return m, nil
}

// storeBoundary snapshots the machine, scheduler, and observers at a
// freshly reached decision boundary, keyed by the executed prefix. The
// snapshot work runs outside the cache lock; an already-present key is
// checked first so replayed prefixes don't pay for snapshots that would
// be discarded. It reports whether a snapshot was actually taken.
func (c *SnapCache) storeBoundary(ds *DecisionSched, m *interp.Machine, fks []StateForker, depth int) bool {
	key := prefixKey(ds.Trace, depth)
	c.mu.Lock()
	_, present := c.entries[key]
	c.mu.Unlock()
	if present {
		return false
	}
	obs := make([]any, len(fks))
	for i, f := range fks {
		obs[i] = f.SnapshotState()
	}
	c.store(key, m.StepCount(), m.Snapshot(), ds.State(), obs)
	return true
}

// ExploreIPBRun explores the same bounded tree as Explore, but in
// iterative preemption-bounding order (CHESS): every reachable
// 0-preemption schedule runs before any 1-preemption schedule, which
// runs before any 2-preemption schedule, and so on. Most concurrency
// bugs trigger with very few preemptions, so under a tight run budget
// this ordering spends it where the payoff density is highest. The
// preemption count of a schedule is the number of decided points that
// switched away from a still-runnable thread; decision points past the
// decided prefix take the non-preemptive default, so the executed
// preemption count equals the prefix count and the run order genuinely
// ascends by preemptions. Exploration order is deterministic.
//
// The explorer drives the machines: mkCfg returns the run configuration
// for one schedule (its Sched field is overwritten with the decision
// scheduler), and onRun observes each completed machine together with
// the scheduler that drove it. When e.Snap is set, runs resume from
// cached ancestor prefixes; the schedules explored and their outcomes
// are identical either way.
func (e *Explorer) ExploreIPBRun(mkCfg func() interp.Config, onRun func(m *interp.Machine, ds *DecisionSched) error) (ExploreResult, error) {
	maxRuns := e.MaxRuns
	if maxRuns <= 0 {
		maxRuns = 256
	}
	maxDec := e.MaxDecisions
	if maxDec <= 0 {
		maxDec = DefaultMaxDecisions
	}
	e.Snap.EnsureDepth(maxDec)
	f := newIPBFrontier(maxDec)
	res := ExploreResult{}
	for f.size > 0 {
		if res.Runs >= maxRuns {
			return res, nil
		}
		node, _ := f.pop()
		ds := &DecisionSched{Decisions: node.vec}
		cfg := mkCfg()
		cfg.Sched = ds
		m, err := e.Snap.RunMachine(cfg)
		if err != nil {
			return res, fmt.Errorf("exploration run %d: %w", res.Runs, err)
		}
		if onRun != nil {
			if err := onRun(m, ds); err != nil {
				return res, fmt.Errorf("exploration run %d: %w", res.Runs, err)
			}
		}
		res.Runs++
		f.expand(node, ds.Trace)
	}
	res.Exhausted = true
	return res, nil
}
