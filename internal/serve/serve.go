// Package serve is the always-on OWL analysis service: an HTTP/JSON
// front end over the owl.Run pipeline with a bounded, sharded job queue
// and a content-hash-keyed store that accumulates exploration state
// across submissions.
//
// Submissions are routed to a shard by their program's content hash, so
// all jobs for one program serialize on one goroutine and mutate that
// program's sched.ExploreState without locking games; different
// programs analyze in parallel across shards. A repeat submission of an
// already-analyzed program starts from the accumulated coverage and
// seen-report set, saturates early, and executes strictly fewer
// schedules than the first submission at equal budget — resume, not
// restart. See docs/SERVE.md.
package serve

import (
	"context"
	"fmt"
	"hash/fnv"
	"net/http"
	"sync"
	"time"

	"github.com/conanalysis/owl/internal/faultinject"
	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/owl"
	"github.com/conanalysis/owl/internal/report"
	"github.com/conanalysis/owl/internal/serve/persist"
	"github.com/conanalysis/owl/internal/serve/replicate"
)

// Config tunes a Server. Zero values select the defaults noted on each
// field.
type Config struct {
	// Shards is the number of shard queues/goroutines (default 4). Jobs
	// hash to a shard by program content key.
	Shards int
	// QueueDepth bounds each shard's queue (default 64). A submission
	// that finds its shard full is rejected with 429 + Retry-After.
	QueueDepth int
	// Workers is the per-job owl pipeline worker-pool width passed to
	// owl.Run when the submission doesn't set one (default 1).
	Workers int
	// TenantQuota caps queued+running jobs per tenant (default 16;
	// exceeding it is rejected with 429 + Retry-After).
	TenantQuota int
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration
	// Metrics, when non-nil, is the live collector /metrics scrapes;
	// finished jobs' collectors are merged into it. Defaults to a fresh
	// collector.
	Metrics *metrics.Collector
	// StateDir, when non-empty, makes the store crash-safe: every
	// program's accumulated state persists under this directory as a
	// checkpoint plus a WAL of per-job deltas, and New recovers it on
	// boot (see internal/serve/persist). Empty = in-memory only.
	StateDir string
	// CheckpointEvery folds a program's WAL into a fresh checkpoint
	// after this many records (default 8).
	CheckpointEvery int
	// MaxPrograms bounds the in-memory program states; exceeding it
	// evicts the least-recently-used program with no jobs in flight
	// (rehydrated lazily from StateDir on the next touch, or forgotten
	// when persistence is off). 0 = unlimited.
	MaxPrograms int
	// Faults injects deterministic disk faults into the persistence
	// layer and network faults into the replica client
	// (crash-consistency and fleet-fault tests); nil injects nothing.
	Faults *faultinject.Plan
	// Peers is the base URLs of the other owl-serve replicas. Non-empty
	// enables fleet warm-start: cold Submit misses fetch state from
	// peers before paying cold-start, and checkpoint folds push state
	// back out (see internal/serve/replicate and docs/SERVE.md).
	Peers []string
	// PeerTimeout/PeerRetries/PeerBackoff/PeerCoolDown tune the peer
	// client (defaults per replicate.Config).
	PeerTimeout  time.Duration
	PeerRetries  int
	PeerBackoff  time.Duration
	PeerCoolDown time.Duration
	// PeerClient issues peer requests (default a fresh http.Client; the
	// in-process fleet harness installs handler-backed transports here).
	PeerClient *http.Client
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.TenantQuota <= 0 {
		c.TenantQuota = 16
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Metrics == nil {
		c.Metrics = metrics.New()
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 8
	}
	if c.MaxPrograms < 0 {
		c.MaxPrograms = 0
	}
	return c
}

// Server is the analysis service. Create with New, serve its Handler,
// stop with Shutdown.
type Server struct {
	cfg   Config
	store *store
	mc    *metrics.Collector
	rep   *replicate.Replicator // nil = replication off

	mu       sync.Mutex
	draining bool
	seq      int
	jobs     map[string]*Job
	jobOrder []string
	tenants  map[string]int // queued+running jobs per tenant
	queued   []int          // per-shard queue occupancy (for 429 + queue_depth)

	shards []chan *Job
	wg     sync.WaitGroup

	// runJob runs one job's pipeline; tests may wrap it to gate shard
	// workers deterministically (backpressure/drain tests).
	runJob func(j *Job)
}

// New starts a server: one goroutine per shard, ready to accept jobs.
// With Config.StateDir set it first recovers every persisted program
// (replaying checkpoint + WAL, quarantining anything damaged — recovery
// never fails boot); the error return is only for an unusable state
// directory itself.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		store:   newStore(cfg.MaxPrograms, cfg.Metrics),
		mc:      cfg.Metrics,
		jobs:    make(map[string]*Job),
		tenants: make(map[string]int),
		queued:  make([]int, cfg.Shards),
		shards:  make([]chan *Job, cfg.Shards),
	}
	if cfg.StateDir != "" {
		pstore, recovered, err := persist.Open(cfg.StateDir, persist.Options{
			Faults:  cfg.Faults,
			Metrics: cfg.Metrics,
		})
		if err != nil {
			return nil, err
		}
		s.store.pstore = pstore
		s.rehydrateAll(recovered)
	}
	s.rep = replicate.New(replicate.Config{
		Peers:    cfg.Peers,
		Timeout:  cfg.PeerTimeout,
		Retries:  cfg.PeerRetries,
		Backoff:  cfg.PeerBackoff,
		CoolDown: cfg.PeerCoolDown,
		Client:   cfg.PeerClient,
		Faults:   cfg.Faults,
		Metrics:  cfg.Metrics,
	})
	s.store.rep = s.rep
	s.runJob = s.execute
	for i := range s.shards {
		ch := make(chan *Job, cfg.QueueDepth)
		s.shards[i] = ch
		s.wg.Add(1)
		go s.runShard(ch)
	}
	return s, nil
}

// ErrRejected is returned by Submit when the service cannot accept the
// job right now; Reason distinguishes queue backpressure from tenant
// quota exhaustion, and Drain marks shutdown rejections (503, not 429).
type ErrRejected struct {
	Reason string
	Drain  bool
}

func (e *ErrRejected) Error() string { return "serve: rejected: " + e.Reason }

// Submit validates, admits, and enqueues a job. It returns the accepted
// job, or *ErrRejected when the shard queue is full / the tenant is over
// quota / the server is draining, or a validation error.
func (s *Server) Submit(spec Spec) (*Job, error) {
	if _, err := spec.Options.validate(); err != nil {
		return nil, err
	}
	prog, name, key, err := resolve(spec)
	if err != nil {
		return nil, err
	}
	tenant := spec.Tenant
	if tenant == "" {
		tenant = "anonymous"
		spec.Tenant = tenant
	}
	// acquire raises the program's inflight count (an in-flight program
	// cannot be evicted out from under its jobs); every admission-failure
	// return below must release it, success hands the reference to finish.
	ps, existed := s.store.acquire(key, name, prog, sourceOf(spec))
	shard := s.shardFor(key)

	// Admission is one critical section: quota check, queue-capacity
	// check, and the channel send all happen under mu, the same lock
	// Shutdown holds while closing the shard channels — so a send can
	// never hit a closed channel, and capacity accounting can't race
	// another submission into an over-full queue.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.store.release(ps)
		s.mc.Count("serve.jobs_rejected_drain", 1)
		return nil, &ErrRejected{Reason: "server is draining", Drain: true}
	}
	if s.tenants[tenant] >= s.cfg.TenantQuota {
		s.store.release(ps)
		s.mc.Count("serve.jobs_rejected_quota", 1)
		return nil, &ErrRejected{Reason: fmt.Sprintf("tenant %q is at its quota of %d in-flight jobs", tenant, s.cfg.TenantQuota)}
	}
	if s.queued[shard] >= s.cfg.QueueDepth {
		s.store.release(ps)
		s.mc.Count("serve.jobs_rejected_queue", 1)
		return nil, &ErrRejected{Reason: fmt.Sprintf("shard %d queue is full (%d jobs)", shard, s.cfg.QueueDepth)}
	}
	s.seq++
	id := fmt.Sprintf("job-%d", s.seq)
	j := newJob(id, spec, ps, shard)
	if !existed {
		s.mc.Count("serve.store_programs", 1)
	}
	s.jobs[id] = j
	s.jobOrder = append(s.jobOrder, id)
	s.tenants[tenant]++
	s.queued[shard]++
	s.shards[shard] <- j // capacity-checked above; cannot block
	s.mc.Count("serve.jobs_submitted", 1)
	return j, nil
}

// Job returns a previously submitted job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs snapshots all job statuses in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	ordered := make([]*Job, 0, len(s.jobOrder))
	for _, id := range s.jobOrder {
		ordered = append(ordered, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(ordered))
	for i, j := range ordered {
		out[i] = j.Status()
	}
	return out
}

// Programs snapshots the store.
func (s *Server) Programs() []ProgramInfo { return s.store.list() }

// Metrics returns the live collector /metrics scrapes (the one finished
// jobs merge into) — the loadgen harness reads the serve.* totals off it.
func (s *Server) Metrics() *metrics.Collector { return s.mc }

// Shutdown drains the service: new submissions are rejected with 503,
// already-accepted jobs run to completion, and Shutdown returns when
// every shard goroutine has exited or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		for _, ch := range s.shards {
			close(ch)
		}
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		// Every job is drained; fold each program's WAL into a final
		// checkpoint and release the file handles. (A kill that skips
		// this loses nothing — the WAL already holds every job — it just
		// leaves the compaction to the next boot's replay.)
		s.persistAll(true)
		if s.rep != nil {
			// Final anti-entropy sweep: everything this replica learned
			// goes out to the fleet before the process exits.
			for _, ps := range s.store.all() {
				if ps.state.Warm() {
					s.offerState(ps)
				}
			}
			s.rep.Flush(ctx)
			s.rep.Close()
		}
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted: %w", ctx.Err())
	}
}

// shardFor routes a content key to a shard. Same program → same shard,
// always: that serialization is what lets jobs mutate the program's
// ExploreState without locks and makes resume counts deterministic.
func (s *Server) shardFor(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(s.cfg.Shards))
}

func (s *Server) runShard(ch chan *Job) {
	defer s.wg.Done()
	for j := range ch {
		// Read the hook under mu: tests swap it (to gate shard workers
		// deterministically) between New and the first Submit.
		s.mu.Lock()
		run := s.runJob
		s.mu.Unlock()
		run(j)
	}
}

// finish releases a job's admission accounting and its eviction pin.
func (s *Server) finish(j *Job) {
	s.mu.Lock()
	s.tenants[j.spec.Tenant]--
	if s.tenants[j.spec.Tenant] <= 0 {
		delete(s.tenants, j.spec.Tenant)
	}
	s.queued[j.shard]--
	s.mu.Unlock()
	s.store.release(j.ps)
}

// execute runs one job's pipeline on its shard goroutine. The admission
// accounting (queue slot, tenant quota) is released *before* the
// terminal status is published: a client that observed the job finish
// must be able to submit the next one without racing the bookkeeping.
func (s *Server) execute(j *Job) {
	terminal := s.run(j)
	s.finish(j)
	j.update(terminal)
}

// run executes the pipeline and returns the terminal status mutation.
func (s *Server) run(j *Job) func(*JobStatus) {
	start := time.Now()
	s.mc.Count("serve.jobs_started", 1)

	spec := j.spec
	mode, err := spec.Options.validate()
	if err != nil { // re-validated defensively; Submit already checked
		return s.fail(j, err)
	}

	var resume = j.ps.state
	warm := resume.Warm()
	if spec.Options.resumeEligible() {
		if warm {
			s.mc.Count("serve.resume_hits", 1)
		} else {
			s.mc.Count("serve.resume_misses", 1)
		}
	} else {
		resume = nil
	}
	j.update(func(st *JobStatus) {
		st.State = StateRunning
		st.Resume = resume != nil && warm
	})

	prog := j.ps.prog
	if spec.Options.MaxSteps > 0 {
		prog.MaxSteps = spec.Options.MaxSteps
	}
	workers := spec.Options.Workers
	if workers <= 0 {
		workers = s.cfg.Workers
	}
	detectRuns := spec.Options.Runs
	if detectRuns <= 0 {
		detectRuns = 8 // cmd/owl's -runs default
	}
	opts := owl.Options{
		DetectRuns:      detectRuns,
		Explore:         mode,
		Budget:          spec.Options.Budget,
		Seed:            spec.Options.Seed,
		Predict:         spec.Options.Predict,
		PredictReversal: spec.Options.PredictReversal,
		Workers:         workers,
		Metrics:         j.mc,
		ExploreState:    resume,
	}
	res, err := owl.Run(prog, opts)
	if err != nil {
		return s.fail(j, err)
	}

	freshIDs, known, total, subs := j.ps.absorbRun(res)
	// Make the job durable before its terminal status publishes: a
	// client that saw "done" and killed the server must find this job's
	// contribution after restart.
	s.persistJob(j.ps, freshIDs, subs)
	if j.ps.log == nil {
		// Memory-only program: there is no checkpoint-fold cadence to
		// ride, so anti-entropy pushes after every completed job (Offer
		// is async and latest-wins, so a busy program collapses to one
		// queued blob).
		s.offerState(j.ps)
	}
	var detectRuns64 int64
	for _, c := range j.mc.Snapshot().Counters {
		if c.Name == "owl.detect_runs" {
			detectRuns64 = c.Value
		}
	}
	result := &JobResult{
		SummaryText:       report.Text(j.ps.name, res),
		RawReports:        res.Stats.RawReports,
		Remaining:         res.Stats.Remaining,
		Findings:          res.Stats.Findings,
		VerifiedAttacks:   res.Stats.VerifiedAttacks,
		ExecutedSchedules: detectRuns64,
		NewReports:        len(freshIDs),
		KnownReports:      known,
		StoreReports:      total,
		Submissions:       subs,
		ElapsedMS:         float64(time.Since(start)) / float64(time.Millisecond),
	}
	s.mc.Merge(j.mc)
	s.mc.Count("serve.jobs_completed", 1)
	return func(st *JobStatus) {
		st.State = StateDone
		st.Result = result
	}
}

func (s *Server) fail(j *Job, err error) func(*JobStatus) {
	s.mc.Merge(j.mc)
	s.mc.Count("serve.jobs_failed", 1)
	return func(st *JobStatus) {
		st.State = StateFailed
		st.Error = err.Error()
	}
}

// queueGauges refreshes the scrape-time gauges on the live collector.
func (s *Server) queueGauges() {
	s.mu.Lock()
	depth := 0
	for _, n := range s.queued {
		depth += n
	}
	active := 0
	for _, n := range s.tenants {
		active += n
	}
	drain := s.draining
	s.mu.Unlock()
	s.mc.Gauge("serve.queue_depth", float64(depth))
	s.mc.Gauge("serve.active_jobs", float64(active))
	s.mc.Flag("serve.draining", drain)
	s.mc.Gauge("serve.shards", float64(s.cfg.Shards))
}
