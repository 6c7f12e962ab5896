package serve

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/conanalysis/owl/internal/faultinject"
	"github.com/conanalysis/owl/internal/sched"
	"github.com/conanalysis/owl/internal/serve/persist"
)

func mustSubmit(t *testing.T, s *Server, spec Spec) *Job {
	t.Helper()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return j
}

// inlineSpec is a small racy inline program — cheap to analyze, and it
// produces raw reports so the report-set round trip is exercised too.
func inlineSpec() Spec {
	const src = `
global @x = 0

func @worker() {
entry:
  store 1, @x
  ret 0
}
func @main() {
entry:
  %t = call @spawn(@worker)
  %v = load @x
  %r = call @join(%t)
  ret 0
}
`
	return Spec{Program: src, Options: SpecOptions{Explore: "coverage", Budget: 24, Seed: 3}}
}

// TestRestartResumeParity is the acceptance gate for the durable store:
// submit → drain → reboot from disk → resubmit must behave exactly like
// a never-restarted server's repeat submission — strictly fewer
// schedules than the first run at equal budget, a byte-identical
// summary, and the same accumulated program accounting.
func TestRestartResumeParity(t *testing.T) {
	spec := libsafeSpec("parity")

	// Baseline: one server, never restarted.
	base := mustNew(t, Config{Shards: 2})
	b1 := waitJob(t, mustSubmit(t, base, spec)).Result
	b2 := waitJob(t, mustSubmit(t, base, spec)).Result
	baseProgs := base.Programs()
	base.Shutdown(context.Background())

	// Durable: same first submission, then a full drain and a reboot
	// from the state directory.
	dir := t.TempDir()
	s1 := mustNew(t, Config{Shards: 2, StateDir: dir})
	d1 := waitJob(t, mustSubmit(t, s1, spec)).Result
	if normalizeTiming(d1.SummaryText) != normalizeTiming(b1.SummaryText) {
		t.Fatal("first-run summaries diverged before any restart — persistence changed pipeline behavior")
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := mustNew(t, Config{Shards: 2, StateDir: dir})
	defer s2.Shutdown(context.Background())
	if got := counterOf(s2.mc, "serve.persist_recovered"); got != 1 {
		t.Fatalf("serve.persist_recovered = %d, want 1", got)
	}
	st := waitJob(t, mustSubmit(t, s2, spec))
	if !st.Resume {
		t.Error("post-restart resubmission did not resume")
	}
	if counterOf(s2.mc, "serve.resume_hits") != 1 {
		t.Error("post-restart resubmission not counted as resume hit")
	}
	d2 := st.Result
	if d2.ExecutedSchedules >= d1.ExecutedSchedules {
		t.Errorf("post-restart resume executed %d schedules, want strictly fewer than first run's %d",
			d2.ExecutedSchedules, d1.ExecutedSchedules)
	}
	if d2.ExecutedSchedules != b2.ExecutedSchedules {
		t.Errorf("restart parity broken: %d schedules after reboot, never-restarted baseline executed %d",
			d2.ExecutedSchedules, b2.ExecutedSchedules)
	}
	if normalizeTiming(d2.SummaryText) != normalizeTiming(b2.SummaryText) {
		t.Errorf("post-restart summary diverged from baseline:\n--- restarted ---\n%s\n--- baseline ---\n%s",
			d2.SummaryText, b2.SummaryText)
	}
	if d2.Submissions != 2 || d2.NewReports != 0 || d2.StoreReports != b2.StoreReports {
		t.Errorf("post-restart accounting = %+v, baseline = %+v", d2, b2)
	}
	if progs := s2.Programs(); !reflect.DeepEqual(progs, baseProgs) {
		t.Errorf("program listings diverged:\n restarted %+v\n baseline  %+v", progs, baseProgs)
	}
}

// TestKillWithoutDrainRecovers: the first server is abandoned without
// Shutdown — no drain-time checkpoint — so the reboot must reconstruct
// every program purely from its initial checkpoint plus WAL replay, and
// each resubmission must resume.
func TestKillWithoutDrainRecovers(t *testing.T) {
	cov := func(workload string) Spec {
		return Spec{Workload: workload, Options: SpecOptions{Explore: "coverage", Budget: 16, Seed: 7}}
	}
	specs := []Spec{cov("libsafe"), cov("apache"), cov("ssdb"), inlineSpec()}
	dir := t.TempDir()
	s1 := mustNew(t, Config{Shards: 1, StateDir: dir})
	first := make([]JobResult, len(specs))
	for i, spec := range specs {
		first[i] = *waitJob(t, mustSubmit(t, s1, spec)).Result
		if first[i].RawReports == 0 {
			t.Fatalf("%s produced no reports; the round trip tests nothing", specName(spec))
		}
	}
	// Simulated kill -9: s1 is abandoned, its shard goroutines parked.

	s2 := mustNew(t, Config{Shards: 1, StateDir: dir})
	defer s2.Shutdown(context.Background())
	if got := counterOf(s2.mc, "serve.persist_replayed"); got != int64(len(specs)) {
		t.Errorf("serve.persist_replayed = %d, want %d WAL records", got, len(specs))
	}
	for i, spec := range specs {
		st := waitJob(t, mustSubmit(t, s2, spec))
		if !st.Resume {
			t.Errorf("%s: resubmission after kill did not resume from the WAL", specName(spec))
		}
		if st.Result.Submissions != 2 || st.Result.NewReports != 0 || st.Result.StoreReports != first[i].StoreReports {
			t.Errorf("%s: post-kill accounting = %+v (first %+v)", specName(spec), st.Result, first[i])
		}
	}
	if got := counterOf(s2.mc, "serve.resume_hits"); got != int64(len(specs)) {
		t.Errorf("serve.resume_hits = %d, want %d", got, len(specs))
	}
}

// specName labels a spec in failure messages.
func specName(spec Spec) string {
	if spec.Workload != "" {
		return spec.Workload
	}
	return "inline program"
}

// TestDiskFaultMatrix proves the recovery invariant under every
// injected fault kind: whatever the plan did to the writing server's
// disk, the next boot either recovers the durable prefix or quarantines
// — it never fails, and a resubmission always completes.
func TestDiskFaultMatrix(t *testing.T) {
	cases := []struct {
		name  string
		rules []faultinject.Rule
		// wantResume: does the resubmission on the rebooted server resume?
		wantResume bool
		// counter the rebooted server must have raised (beyond recovered).
		wantCounter string
	}{
		{
			// The WAL record for job 1 tears (kill -9 mid page flush):
			// recovery truncates it and the state falls back to the cold
			// initial checkpoint.
			name:        "torn-wal-record",
			rules:       []faultinject.Rule{{Stage: "persist.wal.append", Run: 0, Kind: faultinject.KindTornWrite}},
			wantResume:  false,
			wantCounter: "serve.persist_truncated_tails",
		},
		{
			// Every checkpoint write is bit-flipped, so even the initial
			// checkpoint is corrupt: boot must quarantine the program.
			name:        "bitflip-checkpoint",
			rules:       []faultinject.Rule{{Stage: "persist.checkpoint.write", Run: -1, Kind: faultinject.KindBitFlip, Bit: 200}},
			wantResume:  false,
			wantCounter: "serve.persist_quarantined",
		},
		{
			// The WAL append errors out, but the fallback checkpoint
			// regains durability: the reboot resumes warm.
			name:       "short-wal-append",
			rules:      []faultinject.Rule{{Stage: "persist.wal.append", Run: 0, Kind: faultinject.KindShortWrite}},
			wantResume: true,
		},
		{
			// Same via the fsync path.
			name:       "wal-fsync-error",
			rules:      []faultinject.Rule{{Stage: "persist.wal.fsync", Run: 0, Kind: faultinject.KindFsyncError}},
			wantResume: true,
		},
		{
			// Both paths fail persistently: the server keeps serving from
			// memory, nothing usable lands on disk, and the reboot starts
			// cold — but starts.
			name: "everything-fails",
			rules: []faultinject.Rule{
				{Stage: "persist.wal.append", Run: -1, Kind: faultinject.KindShortWrite},
				{Stage: "persist.checkpoint.write", Run: -1, Kind: faultinject.KindShortWrite},
			},
			wantResume: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			spec := inlineSpec()
			s1 := mustNew(t, Config{Shards: 1, StateDir: dir, Faults: &faultinject.Plan{Rules: tc.rules}})
			st1 := waitJob(t, mustSubmit(t, s1, spec))
			if st1.State != StateDone {
				t.Fatalf("job under disk faults ended %q — faults must never fail analysis", st1.State)
			}
			// Abandoned without drain, like a crash.

			s2 := mustNew(t, Config{Shards: 1, StateDir: dir})
			defer s2.Shutdown(context.Background())
			st2 := waitJob(t, mustSubmit(t, s2, spec))
			if st2.Resume != tc.wantResume {
				t.Errorf("post-fault resubmission resume = %v, want %v", st2.Resume, tc.wantResume)
			}
			if tc.wantResume && st2.Result.ExecutedSchedules >= st1.Result.ExecutedSchedules {
				t.Errorf("recovered resume executed %d schedules, want fewer than %d",
					st2.Result.ExecutedSchedules, st1.Result.ExecutedSchedules)
			}
			if tc.wantCounter != "" && counterOf(s2.mc, tc.wantCounter) == 0 {
				t.Errorf("counter %s = 0 after recovery, want > 0", tc.wantCounter)
			}
		})
	}
}

// TestEvictionBoundsStore: -max-programs caps the in-memory store by
// LRU-evicting cold programs. Without persistence the evicted state is
// deliberately forgotten (bounded memory), so the resubmission starts
// cold.
func TestEvictionBoundsStore(t *testing.T) {
	s := mustNew(t, Config{Shards: 1, MaxPrograms: 1})
	defer s.Shutdown(context.Background())
	waitJob(t, mustSubmit(t, s, inlineSpec()))
	waitJob(t, mustSubmit(t, s, libsafeSpec("evict"))) // second program evicts the first
	if got := counterOf(s.mc, "serve.programs_evicted"); got != 1 {
		t.Fatalf("serve.programs_evicted = %d, want 1", got)
	}
	if got := s.store.len(); got != 1 {
		t.Fatalf("store holds %d programs, want 1", got)
	}
	st := waitJob(t, mustSubmit(t, s, inlineSpec()))
	if st.Resume {
		t.Error("evicted program resumed without persistence — state should have been dropped")
	}
}

// TestEvictionRehydratesFromDisk: with a state dir, eviction only drops
// the program from memory; the next submission lazily rehydrates it
// from disk and resumes warm.
func TestEvictionRehydratesFromDisk(t *testing.T) {
	s := mustNew(t, Config{Shards: 1, MaxPrograms: 1, StateDir: t.TempDir()})
	defer s.Shutdown(context.Background())
	first := waitJob(t, mustSubmit(t, s, inlineSpec())).Result
	waitJob(t, mustSubmit(t, s, libsafeSpec("evict")))
	if got := counterOf(s.mc, "serve.programs_evicted"); got != 1 {
		t.Fatalf("serve.programs_evicted = %d, want 1", got)
	}
	st := waitJob(t, mustSubmit(t, s, inlineSpec()))
	if !st.Resume {
		t.Error("evicted program did not rehydrate from disk")
	}
	if st.Result.Submissions != 2 || st.Result.StoreReports != first.StoreReports {
		t.Errorf("rehydrated accounting = %+v (first %+v)", st.Result, first)
	}
	if got := counterOf(s.mc, "serve.persist_recovered"); got == 0 {
		t.Error("lazy rehydrate not counted in serve.persist_recovered")
	}
}

// TestEvictionSparesInFlightProgram: a program whose first job is still
// queued must survive a concurrent insert pushing the store over
// -max-programs. acquire pins the program before it becomes visible to
// the eviction sweep, so eviction can never close a log out from under
// a job — the failure mode being a silently dropped durable delta.
func TestEvictionSparesInFlightProgram(t *testing.T) {
	s := mustNew(t, Config{Shards: 1, MaxPrograms: 1, StateDir: t.TempDir()})
	defer s.Shutdown(context.Background())
	release := gateRunJob(s)
	defer release() // a Fatal below must not leave Shutdown waiting on the gate

	j1 := mustSubmit(t, s, inlineSpec())       // fresh program, gated in flight
	j2 := mustSubmit(t, s, libsafeSpec("pin")) // second program pushes the store over budget
	if got := counterOf(s.mc, "serve.programs_evicted"); got != 0 {
		t.Fatalf("serve.programs_evicted = %d with both programs in flight, want 0", got)
	}
	if got := s.store.len(); got != 2 {
		t.Fatalf("store holds %d programs, want 2 (over budget, but both are pinned)", got)
	}
	release()
	if first := waitJob(t, j1).Result; first.RawReports == 0 {
		t.Fatal("gated job produced no reports; the durability assertion below tests nothing")
	}
	waitJob(t, j2)

	// The first job's delta must have reached the WAL (its log was never
	// closed by eviction): the resubmission resumes warm with the
	// accumulated accounting, whether served from memory or from disk.
	st := waitJob(t, mustSubmit(t, s, inlineSpec()))
	if !st.Resume {
		t.Error("resubmission after in-flight window did not resume — first job's state was lost")
	}
	if st.Result.Submissions != 2 {
		t.Errorf("resubmission sees %d submissions, want 2", st.Result.Submissions)
	}
}

// TestEvictedProgramIsCollected: once a program is evicted, nothing the
// server keeps may reach its state. Finished jobs stay listed for status
// queries, so a job holding its spec or program state would pin every
// evicted module, bytecode and ExploreState for the server's lifetime.
func TestEvictedProgramIsCollected(t *testing.T) {
	s := mustNew(t, Config{Shards: 1, MaxPrograms: 1, StateDir: t.TempDir()})
	defer s.Shutdown(context.Background())
	key := waitJob(t, mustSubmit(t, s, inlineSpec())).Key
	s.store.mu.Lock()
	ps := s.store.programs[key]
	s.store.mu.Unlock()
	if ps == nil {
		t.Fatalf("program %s not in the store after its job", key)
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(ps, func(*programState) { close(collected) })
	ps = nil
	waitJob(t, mustSubmit(t, s, libsafeSpec("evict"))) // evicts the inline program
	if got := counterOf(s.mc, "serve.programs_evicted"); got != 1 {
		t.Fatalf("serve.programs_evicted = %d, want 1", got)
	}
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("evicted program state is still reachable after GC")
}

// TestMaxProgramsDefault: with a state dir, where eviction is lossless,
// an unset bound defaults to DefaultMaxPrograms; without one it stays
// unlimited, since eviction there forgets state. A negative bound is
// unlimited either way.
func TestMaxProgramsDefault(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		want int
	}{
		{Config{}, 0},
		{Config{StateDir: "d"}, DefaultMaxPrograms},
		{Config{StateDir: "d", MaxPrograms: 3}, 3},
		{Config{StateDir: "d", MaxPrograms: -1}, 0},
		{Config{MaxPrograms: -1}, 0},
	} {
		if got := c.cfg.withDefaults().MaxPrograms; got != c.want {
			t.Errorf("MaxPrograms %d with state dir %q defaults to %d, want %d",
				c.cfg.MaxPrograms, c.cfg.StateDir, got, c.want)
		}
	}
}

// TestDrainWithStreamSubscribers: a drain racing in-flight SSE
// subscribers must deliver every stream its terminal event and still
// complete. (Run under -race in the persist-gate lane.)
func TestDrainWithStreamSubscribers(t *testing.T) {
	s := mustNew(t, Config{Shards: 1, StateDir: t.TempDir()})
	release := gateRunJob(s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j := mustSubmit(t, s, inlineSpec())
	id := j.Status().ID

	const subscribers = 3
	finals := make(chan JobStatus, subscribers)
	errs := make(chan error, subscribers)
	for i := 0; i < subscribers; i++ {
		go func() {
			resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/stream")
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			events := readSSE(t, resp)
			var final JobStatus
			if err := json.Unmarshal([]byte(events[len(events)-1].data), &final); err != nil {
				errs <- err
				return
			}
			finals <- final
		}()
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Shutdown(context.Background()) }()
	time.Sleep(10 * time.Millisecond) // let the drain begin with the job gated in flight
	release()

	for i := 0; i < subscribers; i++ {
		select {
		case st := <-finals:
			if st.State != StateDone || st.Result == nil {
				t.Errorf("subscriber got terminal state %q, want done with result", st.State)
			}
		case err := <-errs:
			t.Fatalf("subscriber: %v", err)
		case <-time.After(60 * time.Second):
			t.Fatal("subscriber never saw a terminal event during drain")
		}
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("drain never completed")
	}
}

// TestConcurrentCheckpointWhileAbsorbing hammers checkpoints against
// live jobs (the scrape/drain/absorb interleaving, run under -race in
// CI), requires every concurrent submission to complete and every
// repeat to resume, and then proves the durable state equals the live
// state by rebooting from it.
func TestConcurrentCheckpointWhileAbsorbing(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, Config{Shards: 2, StateDir: dir, CheckpointEvery: 2})

	specs := []Spec{inlineSpec(), libsafeSpec("ckpt")}
	var jobs []*Job
	for round := 0; round < 3; round++ {
		for _, spec := range specs {
			jobs = append(jobs, mustSubmit(t, s, spec))
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.persistAll(false)
				s.Programs() // concurrent scrape for good measure
			}
		}
	}()
	for _, j := range jobs {
		waitJob(t, j)
	}
	close(stop)
	wg.Wait()
	// A program's jobs share its shard, so rounds 2 and 3 of each resume.
	if got, want := counterOf(s.mc, "serve.resume_hits"), int64(2*len(specs)); got != want {
		t.Errorf("serve.resume_hits = %d, want %d", got, want)
	}

	live := s.Programs()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := mustNew(t, Config{Shards: 2, StateDir: dir})
	defer s2.Shutdown(context.Background())
	if got := s2.Programs(); !reflect.DeepEqual(got, live) {
		t.Errorf("rebooted store diverged from live store:\n rebooted %+v\n live     %+v", got, live)
	}
}

// downgradeCheckpoint rewrites a program's CHECKPOINT in format version
// 1, as a server from before stored reports would have left it: the
// coverage pairs and the stored reports' IDs as a seen list, no stored
// reports.
func downgradeCheckpoint(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := persist.DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.State.Pairs) == 0 || len(ck.State.Reports) == 0 {
		t.Fatalf("checkpoint holds %d pairs and %d reports; the downgrade tests nothing",
			len(ck.State.Pairs), len(ck.State.Reports))
	}
	seen := make([]string, len(ck.State.Reports))
	for i, r := range ck.State.Reports {
		seen[i] = r.ID
	}
	sort.Strings(seen)
	v1 := struct {
		persist.Checkpoint
		State any `json:"state"`
	}{ck, struct {
		Pairs        []sched.StablePair `json:"pairs"`
		Seen         []string           `json:"seen"`
		Explorations int                `json:"explorations"`
	}{ck.State.Pairs, seen, ck.State.Explorations}}
	v1.Version = 1
	payload, err := json.Marshal(v1)
	if err != nil {
		t.Fatal(err)
	}
	blob := sealCheckpoint(append([]byte("OWLCKPT1\x00\x00\x00\x00\x00\x00\x00\x00"), payload...))
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestVersion1StateRunsCold: a version-1 state holds coverage but none
// of the reports its jobs found. Recovered as is, it would let the next
// job saturate early and return only the few reports its short run saw.
// So recovery keeps only its counters and report IDs: the first job on
// it must explore cold and find the cold job's reports and attacks, and
// later jobs resume from the state it filled, and (as on a cold state)
// run short from the second one on.
func TestVersion1StateRunsCold(t *testing.T) {
	spec := Spec{Workload: "ssdb", Options: SpecOptions{Budget: 16}}
	dir := t.TempDir()
	s1 := mustNew(t, Config{Shards: 1, StateDir: dir})
	first := waitJob(t, mustSubmit(t, s1, spec))
	cold := first.Result
	// Two more jobs warm the state until a resumed job runs short, as it
	// would from a version-1 state that kept its coverage.
	for i := 2; i <= 3; i++ {
		waitJob(t, mustSubmit(t, s1, spec))
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	downgradeCheckpoint(t, filepath.Join(dir, "programs", first.Key, "CHECKPOINT"))

	s2 := mustNew(t, Config{Shards: 1, StateDir: dir})
	defer s2.Shutdown(context.Background())
	if got := counterOf(s2.mc, "serve.persist_recovered"); got != 1 {
		t.Fatalf("serve.persist_recovered = %d, want the version-1 program recovered", got)
	}
	for i := 2; i <= 4; i++ {
		got := waitJob(t, mustSubmit(t, s2, spec)).Result
		if i == 2 && got.ExecutedSchedules != cold.ExecutedSchedules {
			t.Errorf("job on the version-1 state executed %d schedules, want the cold job's %d",
				got.ExecutedSchedules, cold.ExecutedSchedules)
		}
		if i == 4 && got.ExecutedSchedules >= cold.ExecutedSchedules {
			t.Errorf("second job after the refill executed %d schedules, want fewer than the cold job's %d",
				got.ExecutedSchedules, cold.ExecutedSchedules)
		}
		if got.RawReports != cold.RawReports || got.NewReports != 0 || got.VerifiedAttacks != cold.VerifiedAttacks {
			t.Errorf("submission %d: %d raw reports (%d new), %d attacks; the cold job had %d and %d",
				i, got.RawReports, got.NewReports, got.VerifiedAttacks, cold.RawReports, cold.VerifiedAttacks)
		}
		if g, w := confirmedAttacks(got.SummaryText), confirmedAttacks(cold.SummaryText); !reflect.DeepEqual(g, w) {
			t.Errorf("submission %d: confirmed attacks differ from the cold job's:\n got %q\nwant %q", i, g, w)
		}
	}
}
