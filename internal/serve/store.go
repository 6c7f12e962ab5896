package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/owl"
	"github.com/conanalysis/owl/internal/sched"
	"github.com/conanalysis/owl/internal/serve/persist"
	"github.com/conanalysis/owl/internal/serve/replicate"
)

// programState is everything the service accumulates for one program
// content-hash key. The resolved owl.Program is pinned here on first
// submission and reused verbatim by every later one: coverage keys are
// *ir.Instr identities, so the ExploreState is only meaningful against
// the exact module value it was built from (the workload registry
// builds a fresh module per Get call — re-resolving would silently
// orphan the accumulated coverage).
//
// Only one shard goroutine ever *mutates* a given programState (keys
// route to shards by hash), but the programs endpoint scrapes all of
// them concurrently, so the mutable accounting sits behind mu. The
// ExploreState carries its own lock.
type programState struct {
	key  string
	name string
	prog owl.Program

	state *sched.ExploreState

	// source and fp are the persisted identity: the spec fields the key
	// hashes and the module fingerprint rehydration verifies.
	source persist.ProgramSource
	fp     string

	// log is the program's durability handle (nil when persistence is
	// off or permanently failed for this program). pmu serializes the
	// per-job persistence path (TakeDelta+Append) against checkpoint
	// composition so a checkpoint never snapshots a half-recorded job.
	log *persist.Log
	pmu sync.Mutex

	// inflight and lastUsed are eviction bookkeeping, guarded by the
	// store's mutex: inflight counts queued+running jobs (an evicted
	// program must have none), lastUsed is the store's monotonic use
	// tick (LRU order).
	inflight int
	lastUsed int64

	mu sync.Mutex
	// reports dedups raw race reports by ID across submissions; order
	// keeps first-seen order for deterministic listings.
	reports     map[string]bool
	order       []string
	submissions int
}

// newProgramState binds a checkpoint, plus the WAL deltas recorded
// after it, to the resolved program prog. It is the one way a
// programState is built: ck may come from this replica's disk, from a
// peer, or be the empty checkpoint of a first-seen program. It refuses
// to guess: the module fingerprint must match and every stable coverage
// position must resolve. The state comes back unjournaled and without a
// log; attach binds the log.
func newProgramState(ck *persist.Checkpoint, deltas []persist.Delta, name string, prog owl.Program) (*programState, error) {
	fp := prog.Module.Fingerprint()
	if ck.ModuleFP != fp {
		return nil, fmt.Errorf("module fingerprint %.12s does not match checkpoint %.12s", fp, ck.ModuleFP)
	}
	ps := &programState{
		key:         ck.Key,
		name:        name,
		prog:        prog,
		state:       sched.NewExploreState(),
		source:      ck.Source,
		fp:          fp,
		reports:     make(map[string]bool, len(ck.Reports)),
		submissions: ck.Submissions,
	}
	if _, err := ps.state.Merge(prog.Module, ck.State); err != nil {
		return nil, err
	}
	ps.addReports(ck.Reports)
	for _, d := range deltas {
		if d.State != nil {
			if _, err := ps.state.Merge(prog.Module, *d.State); err != nil {
				return nil, err
			}
		}
		ps.addReports(d.Reports)
		ps.submissions = max(ps.submissions, d.SubmissionsAfter)
	}
	return ps, nil
}

// attach binds ps to its durability handle and turns journaling on, so
// everything folded in from now on reaches the next WAL record.
func (ps *programState) attach(log *persist.Log) {
	ps.log = log
	ps.state.SetJournal(true)
}

// addReports unions ids into the report dedup set, keeping first-seen
// order, and returns the IDs that were new. The caller holds ps.mu or
// has not shared ps yet.
func (ps *programState) addReports(ids []string) (fresh []string) {
	for _, id := range ids {
		if !ps.reports[id] {
			ps.reports[id] = true
			ps.order = append(ps.order, id)
			fresh = append(fresh, id)
		}
	}
	return fresh
}

// absorbRun records a completed run: its raw report IDs (returning the
// IDs that were new to the store, in first-seen order) and the
// submission count.
func (ps *programState) absorbRun(res *owl.Result) (freshIDs []string, known, total, submissions int) {
	ids := make([]string, len(res.Raw))
	for i, r := range res.Raw {
		ids[i] = r.ID()
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	freshIDs = ps.addReports(ids)
	ps.submissions++
	return freshIDs, len(ids) - len(freshIDs), len(ps.reports), ps.submissions
}

// store maps content-hash keys to accumulated program state. With a
// persist store attached it is also the cache layer over the state
// directory: misses rehydrate from disk, and exceeding maxPrograms
// evicts the least-recently-used cold program (whose durable state, if
// any, stays on disk for the next touch).
type store struct {
	mu          sync.Mutex
	programs    map[string]*programState
	pending     map[string]chan struct{} // keys whose create/reopen disk I/O is in flight
	maxPrograms int
	tick        int64
	mc          *metrics.Collector
	pstore      *persist.Store        // nil = persistence off
	rep         *replicate.Replicator // nil = replication off
}

// acquireOutcome reports how acquire obtained a program's state.
type acquireOutcome int

const (
	// acqMemory: the key was already live in the program map.
	acqMemory acquireOutcome = iota
	// acqReopened: rehydrated from this replica's own durable state.
	acqReopened
	// acqImported: built from a peer blob (Fetch on a cold miss, or the
	// seed checkpoint of a PUT offer). New to this replica.
	acqImported
	// acqFresh: created cold, no prior state anywhere.
	acqFresh
)

// known reports whether the program already existed locally — the
// Submit-side "existed" notion. Peer-imported programs are NOT known:
// they are new entries this store just learned about, and the caller
// counts them into serve.store_programs like any other first sight.
func (o acquireOutcome) known() bool { return o == acqMemory || o == acqReopened }

func newStore(maxPrograms int, mc *metrics.Collector) *store {
	return &store{
		programs:    make(map[string]*programState),
		pending:     make(map[string]chan struct{}),
		maxPrograms: maxPrograms,
		mc:          mc,
	}
}

// acquire returns the state for key with its inflight count already
// raised — the caller owes exactly one release (directly on admission
// failure, or via Server.finish when the job completes). On a miss it
// first tries to rehydrate the program from disk, then creates it
// fresh (laying down its initial checkpoint when persistence is on).
// The boolean reports whether the key already existed in memory or on
// disk.
//
// The miss path does disk I/O (checkpoint create, or WAL replay on
// reopen) and must not hold the store mutex across those fsyncs — one
// slow disk would serialize every Submit on every shard. A per-key
// pending slot keeps the mutex to map mutation only: the first caller
// for a cold key claims the slot and materializes off-lock, later
// callers for the same key wait on the slot and re-check the map;
// callers for other keys are never blocked.
func (s *store) acquire(key, name string, prog owl.Program, src persist.ProgramSource) (*programState, bool) {
	ps, outcome := s.acquireSeeded(key, name, prog, src, nil, true)
	return ps, outcome.known()
}

// acquireSeeded is acquire with the replication hooks exposed: seed,
// when non-nil, is a peer-offered checkpoint to build a missing program
// from (already identity-verified by the caller), and allowPeer gates
// the cold-miss peer fetch (the PUT offer path must not re-fetch from
// the peer that is pushing to us).
func (s *store) acquireSeeded(key, name string, prog owl.Program, src persist.ProgramSource, seed *persist.Checkpoint, allowPeer bool) (*programState, acquireOutcome) {
	var gate chan struct{}
	for {
		s.mu.Lock()
		if ps, ok := s.programs[key]; ok {
			s.touchLocked(ps)
			s.mu.Unlock()
			return ps, acqMemory
		}
		ch, busy := s.pending[key]
		if !busy {
			gate = make(chan struct{})
			s.pending[key] = gate
			s.mu.Unlock()
			break
		}
		s.mu.Unlock()
		<-ch
	}

	ps, outcome := s.materialize(key, name, prog, src, seed, allowPeer)

	s.mu.Lock()
	// Pin before inserting: insertLocked's eviction sweep (and any
	// concurrent one) must never victimize a program whose first job is
	// still queued or running — eviction closes the log, which would
	// silently drop the job's durable delta. The caller's one owed
	// release balances this pin.
	ps.inflight = 1
	s.insertLocked(ps)
	delete(s.pending, key)
	s.mu.Unlock()
	close(gate)
	return ps, outcome
}

// pin returns the live in-memory state for key with its inflight count
// raised (so eviction cannot victimize it while the caller reads it),
// or nil when the key is not in memory. The caller owes one release.
// This is the state-serving endpoint's handle: it never materializes —
// serving a peer must not fault a cold program into memory.
func (s *store) pin(key string) *programState {
	s.mu.Lock()
	defer s.mu.Unlock()
	ps, ok := s.programs[key]
	if !ok {
		return nil
	}
	s.touchLocked(ps)
	return ps
}

// materialize builds the in-memory state for a key that is not in the
// store, in warmth order: rehydrate from this replica's own disk, else
// bind the seed checkpoint (offer path) or a peer-fetched blob (cold
// miss with replication on), else bind the empty checkpoint of a
// first-seen program. A blob that fails identity or state validation
// is discarded and the cold path proceeds — a bad peer can cost warmth,
// never a job. With persistence on, a new program's first checkpoint is
// laid down right away, so warmth bought from a peer survives a restart
// too. Runs outside the store mutex; the caller holds key's pending
// slot, so exactly one goroutine materializes a given key at a time.
func (s *store) materialize(key, name string, prog owl.Program, src persist.ProgramSource, seed *persist.Checkpoint, allowPeer bool) (*programState, acquireOutcome) {
	if ps := s.reopen(key, name, prog); ps != nil {
		return ps, acqReopened
	}
	ck, fetched := seed, false
	if ck == nil && allowPeer && s.rep.Enabled() {
		ck = s.rep.Fetch(context.Background(), key)
		fetched = ck != nil
	}
	var ps *programState
	outcome := acqImported
	if ck != nil {
		var err error
		if ps, err = newProgramState(ck, nil, name, prog); err != nil {
			s.mc.Count("serve.replica_discarded", 1)
		} else if fetched {
			s.mc.Count("serve.replica_fetch_hits", 1)
		}
	}
	if ps == nil {
		// The fingerprint is always computed (it is cached on the
		// module, one hash per program first-sight): the state endpoint
		// serves blobs whether or not persistence is on, and a blob
		// without a fingerprint could never be trusted by a peer. The
		// bind cannot fail: the checkpoint is empty and carries the
		// module's own fingerprint.
		ck = &persist.Checkpoint{Key: key, Source: src, ModuleFP: prog.Module.Fingerprint()}
		ps, _ = newProgramState(ck, nil, name, prog)
		outcome = acqFresh
	}
	if s.pstore != nil {
		first := *ck
		first.Name = name
		if log, err := s.pstore.Create(first); err != nil {
			s.mc.Count("serve.persist_errors", 1)
		} else {
			ps.attach(log)
		}
	}
	return ps, outcome
}

// reopen lazily rehydrates an evicted program's durable state, or
// returns nil so the caller starts fresh.
func (s *store) reopen(key, name string, prog owl.Program) *programState {
	if s.pstore == nil {
		return nil
	}
	rec, err := s.pstore.Reopen(key)
	if err != nil || rec == nil {
		return nil
	}
	return s.rehydrate(rec, name, prog, nil)
}

// rehydrate binds a recovered program to its resolved module and its
// log. When resolving the program failed (err) or the bind does, the
// program's durable state is discarded — quarantined and counted — and
// nil is returned.
func (s *store) rehydrate(rec *persist.Recovered, name string, prog owl.Program, err error) *programState {
	var ps *programState
	if err == nil {
		ps, err = newProgramState(&rec.Checkpoint, rec.Deltas, name, prog)
	}
	if err != nil {
		rec.Log.Close()
		s.discard(rec.Checkpoint.Key)
		return nil
	}
	ps.attach(rec.Log)
	return ps
}

// insert adds a rehydrated program (boot path).
func (s *store) insert(ps *programState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.insertLocked(ps)
}

func (s *store) insertLocked(ps *programState) {
	s.tick++
	ps.lastUsed = s.tick
	s.programs[ps.key] = ps
	s.evictLocked()
}

func (s *store) touchLocked(ps *programState) {
	s.tick++
	ps.lastUsed = s.tick
	ps.inflight++
}

// release drops one inflight reference (job finished or admission
// failed).
func (s *store) release(ps *programState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ps.inflight > 0 {
		ps.inflight--
	}
}

// evictLocked enforces maxPrograms by dropping the least-recently-used
// programs with no jobs in flight. With persistence on, an evicted
// program's state survives on disk (every job was WAL-appended before
// its terminal status published) and rehydrates on the next touch;
// without, eviction deliberately forgets the accumulated state —
// bounded memory beats unbounded resume.
func (s *store) evictLocked() {
	for s.maxPrograms > 0 && len(s.programs) > s.maxPrograms {
		var victim *programState
		for _, ps := range s.programs {
			if ps.inflight > 0 {
				continue
			}
			if victim == nil || ps.lastUsed < victim.lastUsed {
				victim = ps
			}
		}
		if victim == nil {
			return // everything is hot; stay over budget rather than lose live state
		}
		delete(s.programs, victim.key)
		if victim.log != nil {
			victim.log.Close()
			victim.log = nil
		}
		s.mc.Count("serve.programs_evicted", 1)
	}
}

// discard quarantines a program's on-disk state (rehydration refused
// it) and counts the loss. It touches only the persist store, never the
// program map, so it takes no store lock — the rename it performs is
// disk I/O that must not block Submit admission.
func (s *store) discard(key string) {
	if s.pstore != nil {
		s.pstore.Quarantine(key)
	}
	s.mc.Count("serve.persist_discarded", 1)
}

// all snapshots the live program states (drain-time checkpoint sweep).
func (s *store) all() []*programState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*programState, 0, len(s.programs))
	for _, ps := range s.programs {
		out = append(out, ps)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// len returns the number of distinct programs currently in memory.
func (s *store) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.programs)
}

// ProgramInfo is the wire summary of one stored program.
type ProgramInfo struct {
	Key         string `json:"key"`
	Name        string `json:"name"`
	Submissions int    `json:"submissions"`
	// Explorations/Pairs/Reports describe the accumulated ExploreState:
	// absorbed coverage explorations, distinct coverage pairs, and
	// deduplicated raw reports.
	Explorations int `json:"explorations"`
	Pairs        int `json:"pairs"`
	Reports      int `json:"reports"`
}

// list snapshots the store for the programs endpoint, sorted by key for
// a deterministic listing. Counts read through the ExploreState's own
// mutex-guarded accessors, so a concurrent job run on another shard
// cannot race the scrape.
func (s *store) list() []ProgramInfo {
	states := s.all()
	out := make([]ProgramInfo, 0, len(states))
	for _, ps := range states {
		ps.mu.Lock()
		subs, nRep := ps.submissions, len(ps.reports)
		ps.mu.Unlock()
		out = append(out, ProgramInfo{
			Key:          ps.key,
			Name:         ps.name,
			Submissions:  subs,
			Explorations: ps.state.Explorations(),
			Pairs:        ps.state.Pairs(),
			Reports:      nRep,
		})
	}
	return out
}
