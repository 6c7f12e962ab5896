package serve

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/conanalysis/owl/internal/faultinject"
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
// the state purely from the initial checkpoint plus WAL replay.
func TestKillWithoutDrainRecovers(t *testing.T) {
	dir := t.TempDir()
	spec := inlineSpec()
	s1 := mustNew(t, Config{Shards: 1, StateDir: dir})
	first := waitJob(t, mustSubmit(t, s1, spec)).Result
	if first.RawReports == 0 {
		t.Fatal("inline program produced no reports; the round trip tests nothing")
	}
	// Simulated kill -9: s1 is abandoned, its shard goroutines parked.

	s2 := mustNew(t, Config{Shards: 1, StateDir: dir})
	defer s2.Shutdown(context.Background())
	if got := counterOf(s2.mc, "serve.persist_replayed"); got != 1 {
		t.Errorf("serve.persist_replayed = %d, want 1 WAL record", got)
	}
	st := waitJob(t, mustSubmit(t, s2, spec))
	if !st.Resume {
		t.Error("resubmission after kill did not resume from the WAL")
	}
	if st.Result.Submissions != 2 || st.Result.NewReports != 0 || st.Result.StoreReports != first.StoreReports {
		t.Errorf("post-kill accounting = %+v (first %+v)", st.Result, first)
	}
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
// CI) and then proves the durable state equals the live state by
// rebooting from it.
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
