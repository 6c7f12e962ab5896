// The exploration Engine is the budgeted, coverage-guided replacement for
// a fixed-seed detection loop: it spends a run budget across a portfolio
// of schedule strategies in rounds, scores each round by the new
// interleaving coverage and new deduplicated reports it produced, steers
// the remaining budget toward the productive strategies, and stops early
// once the search saturates. Everything the Engine decides — job order,
// seeds, allocation, early stop — is a pure function of (Seed, Budget,
// round/saturation configuration) plus the deterministic run outcomes, so
// an exploration is reproducible and independent of how many workers the
// caller uses to execute each round's jobs.
package sched

import (
	"context"
	"fmt"

	"github.com/conanalysis/owl/internal/interp"
)

// Strategy identifies one member of the exploration portfolio.
type Strategy int

// The portfolio. Random replays the classic seeded-random detection
// schedules; PCT runs priority schedules with random priority-change
// points (Burckhardt et al.); DFS runs the systematic Explorer in
// iterative preemption-bounding order (0-preemption schedules first).
const (
	StrategyRandom Strategy = iota
	StrategyPCT
	StrategyDFS

	numStrategies
)

func (s Strategy) String() string {
	switch s {
	case StrategyRandom:
		return "random"
	case StrategyPCT:
		return "pct"
	case StrategyDFS:
		return "dfs"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Strategies lists the portfolio in allocation order.
func Strategies() []Strategy {
	return []Strategy{StrategyRandom, StrategyPCT, StrategyDFS}
}

// Job is one execution the Engine hands to the runner: a scheduler to
// drive the machine and a per-run coverage recorder to attach to it. The
// runner must fill ReportIDs with the stable IDs of the (per-run
// deduplicated) reports the run produced; the Engine uses them to score
// rounds and the caller typically also merges the report objects itself,
// in job order.
type Job struct {
	Strategy Strategy
	// Seed is the seed behind Sched for the random/PCT strategies (0 for
	// DFS jobs, which are driven by a decision vector instead).
	Seed  uint64
	Sched interp.Scheduler
	Cov   *RunCoverage
	// ReportIDs is filled by the runner.
	ReportIDs []string

	node ipbNode    // DFS jobs: the decision prefix this job executes
	snap *SnapCache // DFS jobs: prefix-sharing resume cache (nil: replay)
}

// Run executes the job's schedule to completion and returns the
// machine. cfg must carry the job's Sched (plus the run's observers and
// coverage recorder); DFS jobs attached to a snapshot cache resume from
// the deepest cached decision-prefix ancestor, everything else runs
// from step 0. Runners that need finer control may keep driving
// machines themselves — Run is the cache-aware convenience path.
func (j *Job) Run(cfg interp.Config) (*interp.Machine, error) {
	return j.snap.RunMachine(cfg)
}

// EngineConfig tunes an exploration. The zero value of every field gets a
// sensible default except Budget, which is required.
type EngineConfig struct {
	// Budget is the total number of runs the engine may spend.
	Budget int
	// Seed is the base seed every strategy's per-run seeds derive from.
	Seed uint64
	// RoundRuns is the number of runs per allocation round (default 6).
	RoundRuns int
	// Saturation is the number of consecutive rounds with zero new
	// coverage and zero new reports after which the engine stops early
	// (default 2).
	Saturation int
	// MaxDecisions bounds the DFS strategy's branching depth (default 12).
	MaxDecisions int
	// PCTDepth is the PCT bug depth d (default 3).
	PCTDepth int
	// PCTSteps is the step horizon PCT scatters its d-1 priority-change
	// points over (default 4096; callers pass the program's MaxSteps).
	PCTSteps int
	// Snap, when non-nil, attaches a prefix-sharing snapshot cache to the
	// DFS strategy's jobs: runners using Job.Run resume each systematic
	// schedule from the deepest cached ancestor instead of replaying its
	// prefix. Exploration decisions and results are unaffected (snapshot
	// fidelity makes a resumed run byte-identical to a from-scratch run);
	// only wall-clock work shrinks.
	Snap *SnapCache
	// Resume, when non-nil, pre-seeds the engine from a persistent
	// ExploreState: the coverage map and seen-report set start at the
	// state's accumulated values, so schedules the state has already
	// covered score zero and the saturation early stop fires as soon as
	// the program has nothing new to show. The engine never writes
	// the state — callers fold results back with ExploreState.Absorb.
	Resume *ExploreState
}

func (c EngineConfig) withDefaults() EngineConfig {
	if c.RoundRuns <= 0 {
		c.RoundRuns = 6
	}
	if c.Saturation <= 0 {
		c.Saturation = 2
	}
	if c.MaxDecisions <= 0 {
		c.MaxDecisions = DefaultMaxDecisions
	}
	if c.PCTDepth <= 0 {
		c.PCTDepth = 3
	}
	if c.PCTSteps <= 0 {
		c.PCTSteps = 4096
	}
	return c
}

// StrategyStats accumulates one strategy's contribution.
type StrategyStats struct {
	Runs        int // executions spent on the strategy
	NewCoverage int // coverage pairs it observed first
	NewReports  int // deduped reports it observed first
}

// RoundStats is the engine's log of one allocation round.
type RoundStats struct {
	Round       int
	Alloc       [numStrategies]int
	NewCoverage int
	NewReports  int
}

// EngineResult summarizes an exploration.
type EngineResult struct {
	Runs          int
	Rounds        int
	EarlyStop     bool // stopped on saturation with budget left
	DFSExhausted  bool // the bounded DFS tree was fully covered
	Interrupted   bool // the caller's context ended with budget left
	CoveragePairs int
	Strategies    [numStrategies]StrategyStats
	RoundLog      []RoundStats
}

// Engine runs the portfolio. Construct with NewEngine; one Engine drives
// one exploration.
type Engine struct {
	cfg      EngineConfig
	cov      *Coverage
	seen     map[string]bool // report IDs already observed
	frontier *ipbFrontier
	nRandom  uint64 // runs spent per seeded strategy (drives seed derivation)
	nPCT     uint64
	res      EngineResult
}

// NewEngine returns an engine for one exploration.
func NewEngine(cfg EngineConfig) *Engine {
	cfg = cfg.withDefaults()
	cfg.Snap.EnsureDepth(cfg.MaxDecisions)
	e := &Engine{
		cfg:      cfg,
		cov:      NewCoverage(),
		seen:     make(map[string]bool),
		frontier: newIPBFrontier(cfg.MaxDecisions),
	}
	if cfg.Resume != nil {
		cfg.Resume.seed(e)
	}
	return e
}

// Coverage exposes the engine's global coverage map (read-only for
// callers; useful in tests and metrics).
func (e *Engine) Coverage() *Coverage { return e.cov }

// Explore spends the budget. runner executes one round's jobs — it may
// run them concurrently, but must have filled every job's ReportIDs (and
// let the machines feed the jobs' Cov recorders) by the time it returns.
// The engine itself touches shared state only between runner calls, in
// job order, so the outcome is independent of the runner's parallelism.
func (e *Engine) Explore(runner func(jobs []*Job) error) (*EngineResult, error) {
	return e.ExploreCtx(context.Background(), runner)
}

// ExploreCtx is Explore with cooperative cancellation: the context is
// checked between rounds (never mid-round, so a round's jobs always
// merge atomically and the outcome stays deterministic for the rounds
// that did run). A canceled exploration returns the partial result with
// Interrupted set rather than an error — the supervisor layer decides
// whether losing the remaining budget degrades or fails the stage.
func (e *Engine) ExploreCtx(ctx context.Context, runner func(jobs []*Job) error) (*EngineResult, error) {
	if e.cfg.Budget <= 0 {
		return &e.res, nil
	}
	remaining := e.cfg.Budget
	dry := 0
	for remaining > 0 && dry < e.cfg.Saturation {
		if ctx.Err() != nil {
			e.res.Interrupted = true
			break
		}
		roundRuns := e.cfg.RoundRuns
		if roundRuns > remaining {
			roundRuns = remaining
		}
		jobs := e.buildJobs(e.allocate(roundRuns))
		if len(jobs) == 0 {
			break
		}
		if err := runner(jobs); err != nil {
			return &e.res, fmt.Errorf("exploration round %d: %w", e.res.Rounds+1, err)
		}
		remaining -= len(jobs)
		rs := e.merge(jobs)
		e.res.Rounds++
		rs.Round = e.res.Rounds
		e.res.RoundLog = append(e.res.RoundLog, rs)
		if rs.NewCoverage == 0 && rs.NewReports == 0 {
			dry++
		} else {
			dry = 0
		}
	}
	e.res.EarlyStop = dry >= e.cfg.Saturation && remaining > 0
	e.res.DFSExhausted = e.frontier.size == 0
	e.res.CoveragePairs = e.cov.Pairs()
	return &e.res, nil
}

// allocate splits a round's runs across the portfolio. The weight of a
// strategy is its smoothed productivity so far (new coverage plus
// new reports, per run); an untried strategy weighs as much as a
// perfectly productive one so every strategy gets probed early. The
// split is integer largest-remainder with ties broken by strategy order,
// so it is deterministic.
func (e *Engine) allocate(runs int) [numStrategies]int {
	const scale = 100
	var w [numStrategies]int64
	var total int64
	for s := Strategy(0); s < numStrategies; s++ {
		st := e.res.Strategies[s]
		if st.Runs == 0 {
			w[s] = scale
		} else {
			// +1 keeps a saturated strategy in the rotation at low rate:
			// coverage can plateau and then break open at a deeper round.
			w[s] = 1 + scale*int64(st.NewCoverage+4*st.NewReports)/int64(st.Runs)
		}
		if s == StrategyDFS && e.frontier.size == 0 {
			w[s] = 0 // nothing left to pop
		}
		total += w[s]
	}
	var alloc [numStrategies]int
	if total == 0 {
		alloc[StrategyRandom] = runs
		return alloc
	}
	assigned := 0
	var rem [numStrategies]int64
	for s := Strategy(0); s < numStrategies; s++ {
		share := int64(runs) * w[s]
		alloc[s] = int(share / total)
		rem[s] = share % total
		assigned += alloc[s]
	}
	for assigned < runs {
		best := Strategy(-1)
		for s := Strategy(0); s < numStrategies; s++ {
			if w[s] == 0 {
				continue
			}
			if best < 0 || rem[s] > rem[best] {
				best = s
			}
		}
		alloc[best]++
		rem[best] = -1
		assigned++
	}
	// DFS can only use as many runs as its frontier holds; hand the rest
	// to the random strategy, which never exhausts.
	if over := alloc[StrategyDFS] - e.frontier.size; over > 0 {
		alloc[StrategyDFS] -= over
		alloc[StrategyRandom] += over
	}
	return alloc
}

// buildJobs materializes one round's jobs in strategy order, with each
// strategy's jobs in seed (or frontier) order — the fixed merge order the
// determinism contract promises.
func (e *Engine) buildJobs(alloc [numStrategies]int) []*Job {
	var jobs []*Job
	for i := 0; i < alloc[StrategyRandom]; i++ {
		e.nRandom++
		// Seeds 1,2,3,... offset by the base seed: with Seed 0 the random
		// strategy replays exactly the fixed-mode seed sequence.
		seed := e.cfg.Seed + e.nRandom
		jobs = append(jobs, &Job{
			Strategy: StrategyRandom, Seed: seed,
			Sched: NewRandom(seed), Cov: e.cov.NewRun(),
		})
	}
	for i := 0; i < alloc[StrategyPCT]; i++ {
		e.nPCT++
		seed := splitmix64((e.cfg.Seed ^ 0xa02d2c58f1a7690d) + e.nPCT)
		jobs = append(jobs, &Job{
			Strategy: StrategyPCT, Seed: seed,
			Sched: NewPCT(seed, e.cfg.PCTDepth, e.cfg.PCTSteps), Cov: e.cov.NewRun(),
		})
	}
	for i := 0; i < alloc[StrategyDFS]; i++ {
		node, ok := e.frontier.pop()
		if !ok {
			break
		}
		jobs = append(jobs, &Job{
			Strategy: StrategyDFS,
			Sched:    &DecisionSched{Decisions: node.vec},
			Cov:      e.cov.NewRun(),
			node:     node,
			snap:     e.cfg.Snap,
		})
	}
	return jobs
}

// merge folds one executed round into the engine state, in job order:
// coverage pairs and report IDs are credited to the first job that
// observed them, and DFS jobs expand their schedule children into the
// frontier.
func (e *Engine) merge(jobs []*Job) RoundStats {
	var rs RoundStats
	for _, j := range jobs {
		st := &e.res.Strategies[j.Strategy]
		st.Runs++
		rs.Alloc[j.Strategy]++
		e.res.Runs++
		fresh := e.cov.Merge(j.Cov)
		st.NewCoverage += fresh
		rs.NewCoverage += fresh
		for _, id := range j.ReportIDs {
			if e.seen[id] {
				continue
			}
			e.seen[id] = true
			st.NewReports++
			rs.NewReports++
		}
		if j.Strategy == StrategyDFS {
			if ds, ok := j.Sched.(*DecisionSched); ok {
				e.frontier.expand(j.node, ds.Trace)
			}
		}
	}
	return rs
}

// splitmix64 is the standard 64-bit mixer; it decorrelates the PCT seed
// stream from the raw random-strategy seed sequence.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
