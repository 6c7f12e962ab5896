package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/owl"
	"github.com/conanalysis/owl/internal/report"
)

// libsafeSpec is the canonical resume-eligible submission the tests
// reuse: coverage exploration at a budget comfortably above the
// saturation floor (2 dry rounds x 6 runs), so a warm resume has room
// to stop strictly early.
func libsafeSpec(tenant string) Spec {
	return Spec{
		Tenant:   tenant,
		Workload: "libsafe",
		Options:  SpecOptions{Explore: "coverage", Budget: 24, Seed: 7, Workers: 2},
	}
}

// mustNew builds a server, failing the test on a config error (only an
// unusable state dir produces one).
func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// gateRunJob swaps the server's job runner for one that blocks until
// release is closed, then runs the real pipeline. Jobs admitted while
// the gate is closed stay "in flight" deterministically.
func gateRunJob(s *Server) (release func()) {
	ch := make(chan struct{})
	s.mu.Lock()
	real := s.runJob
	s.runJob = func(j *Job) {
		<-ch
		real(j)
	}
	s.mu.Unlock()
	var once bool
	return func() {
		if !once {
			once = true
			close(ch)
		}
	}
}

func waitJob(t *testing.T, j *Job) JobStatus {
	t.Helper()
	select {
	case <-j.done:
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish", j.Status().ID)
	}
	st := j.Status()
	if st.State == StateFailed {
		t.Fatalf("job %s failed: %s", st.ID, st.Error)
	}
	return st
}

func counterOf(mc *metrics.Collector, name string) int64 {
	for _, c := range mc.Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// TestSubmitValidation pins the rejection surface for malformed specs.
func TestSubmitValidation(t *testing.T) {
	s := mustNew(t, Config{})
	defer s.Shutdown(context.Background())
	cases := []Spec{
		{},                                   // neither workload nor program
		{Workload: "libsafe", Program: "x"},  // both
		{Workload: "nope"},                   // unknown workload
		{Workload: "libsafe", Noise: "loud"}, // bad noise
		{Program: inlineSpec().Program, Noise: "loud"}, // bad noise, inline program
		{Program: "not oir"},                           // parse error
		{Workload: "libsafe", Inputs: []int64{1}},
		{Workload: "libsafe", Options: SpecOptions{Explore: "psychic"}},
		{Workload: "libsafe", Options: SpecOptions{Budget: -1}},
	}
	for i, spec := range cases {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("case %d (%+v): accepted, want validation error", i, spec)
		} else if rej := new(ErrRejected); errors.As(err, &rej) {
			t.Errorf("case %d: rejected with backpressure, want validation error", i)
		}
	}
}

// TestQueueBackpressure pins the 429 path: with a single shard of depth
// 1 and a gated worker, the first job occupies the queue slot and the
// second submission is rejected with ErrRejected (the HTTP layer's
// 429 + Retry-After); after the gate opens and the first job drains,
// the same submission is accepted.
func TestQueueBackpressure(t *testing.T) {
	s := mustNew(t, Config{Shards: 1, QueueDepth: 1, TenantQuota: 100})
	defer s.Shutdown(context.Background())
	release := gateRunJob(s)

	j1, err := s.Submit(libsafeSpec("a"))
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	_, err = s.Submit(libsafeSpec("a"))
	rej := new(ErrRejected)
	if !errors.As(err, &rej) || rej.Drain {
		t.Fatalf("second submit: err = %v, want queue-full ErrRejected", err)
	}
	if got := counterOf(s.mc, "serve.jobs_rejected_queue"); got != 1 {
		t.Errorf("serve.jobs_rejected_queue = %d, want 1", got)
	}

	release()
	waitJob(t, j1)
	j2, err := s.Submit(libsafeSpec("a"))
	if err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
	waitJob(t, j2)
}

// TestTenantQuota pins per-tenant admission: a tenant at its quota is
// rejected while another tenant still gets in.
func TestTenantQuota(t *testing.T) {
	s := mustNew(t, Config{Shards: 1, QueueDepth: 100, TenantQuota: 2})
	defer s.Shutdown(context.Background())
	release := gateRunJob(s)

	var jobs []*Job
	for i := 0; i < 2; i++ {
		j, err := s.Submit(libsafeSpec("greedy"))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	_, err := s.Submit(libsafeSpec("greedy"))
	rej := new(ErrRejected)
	if !errors.As(err, &rej) || rej.Drain {
		t.Fatalf("over-quota submit: err = %v, want quota ErrRejected", err)
	}
	if got := counterOf(s.mc, "serve.jobs_rejected_quota"); got != 1 {
		t.Errorf("serve.jobs_rejected_quota = %d, want 1", got)
	}
	// Another tenant is unaffected.
	j, err := s.Submit(libsafeSpec("patient"))
	if err != nil {
		t.Fatalf("other-tenant submit: %v", err)
	}
	jobs = append(jobs, j)

	release()
	for _, j := range jobs {
		waitJob(t, j)
	}
	// Quota released: the greedy tenant can submit again.
	j, err = s.Submit(libsafeSpec("greedy"))
	if err != nil {
		t.Fatalf("post-completion submit: %v", err)
	}
	waitJob(t, j)
}

// TestGracefulDrain pins shutdown semantics: jobs accepted before the
// drain run to completion, submissions during the drain are rejected
// with the Drain flag (the HTTP layer's 503), and Shutdown returns once
// the queues are dry.
func TestGracefulDrain(t *testing.T) {
	s := mustNew(t, Config{Shards: 2, QueueDepth: 8})
	release := gateRunJob(s)

	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := s.Submit(libsafeSpec("a"))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// Draining starts as soon as Shutdown flips the flag; poll for it,
	// then check the rejection path.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		d := s.draining
		s.mu.Unlock()
		if d {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drain flag never set")
		}
		time.Sleep(time.Millisecond)
	}
	_, err := s.Submit(libsafeSpec("a"))
	rej := new(ErrRejected)
	if !errors.As(err, &rej) || !rej.Drain {
		t.Fatalf("submit during drain: err = %v, want drain ErrRejected", err)
	}

	release()
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, j := range jobs {
		st := waitJob(t, j)
		if st.Result == nil {
			t.Errorf("job %s drained without a result", st.ID)
		}
	}
	if got := counterOf(s.mc, "serve.jobs_completed"); got != 3 {
		t.Errorf("serve.jobs_completed = %d, want 3 (drain must finish in-flight jobs)", got)
	}
}

// TestCrossSubmissionResume is the tentpole acceptance gate: a repeat
// submission of the same program resumes the accumulated exploration —
// serve.resume_hits goes positive, strictly fewer schedules execute at
// equal budget, and a third submission repeats the second's count
// exactly (the determinism the serve-gate CI job re-runs under -race).
func TestCrossSubmissionResume(t *testing.T) {
	s := mustNew(t, Config{Shards: 4})
	defer s.Shutdown(context.Background())

	run := func() *JobResult {
		j, err := s.Submit(libsafeSpec("a"))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		st := waitJob(t, j)
		if st.Result == nil {
			t.Fatal("done job has no result")
		}
		return st.Result
	}

	first := run()
	if first.Submissions != 1 || first.StoreReports != first.RawReports {
		t.Errorf("first result accounting off: %+v", first)
	}
	if counterOf(s.mc, "serve.resume_hits") != 0 {
		t.Error("first submission counted as a resume hit")
	}

	second := run()
	if counterOf(s.mc, "serve.resume_hits") == 0 {
		t.Error("serve.resume_hits = 0 after repeat submission, want > 0")
	}
	if second.ExecutedSchedules >= first.ExecutedSchedules {
		t.Errorf("resumed submission executed %d schedules, want strictly fewer than %d",
			second.ExecutedSchedules, first.ExecutedSchedules)
	}
	if second.NewReports != 0 {
		t.Errorf("resumed submission found %d new reports, want 0 (same program, same space)", second.NewReports)
	}
	if second.Submissions != 2 {
		t.Errorf("submissions = %d, want 2", second.Submissions)
	}

	third := run()
	if third.ExecutedSchedules != second.ExecutedSchedules {
		t.Errorf("third submission executed %d schedules, want %d (resume determinism)",
			third.ExecutedSchedules, second.ExecutedSchedules)
	}

	progs := s.Programs()
	if len(progs) != 1 {
		t.Fatalf("store has %d programs, want 1", len(progs))
	}
	if progs[0].Explorations != 3 || progs[0].Submissions != 3 {
		t.Errorf("program info = %+v, want explorations=3 submissions=3", progs[0])
	}
}

// confirmedAttacks returns a summary's CONFIRMED ATTACK lines, sorted.
func confirmedAttacks(summary string) []string {
	var out []string
	for _, line := range strings.Split(summary, "\n") {
		if strings.HasPrefix(line, "CONFIRMED ATTACK: ") {
			out = append(out, line)
		}
	}
	sort.Strings(out)
	return out
}

// TestResumeKeepsColdReports: a resumed stage 1 stops at the saturation
// floor and sees only a few schedules, so it must return the program's
// stored reports next to what it found. For each of the benchmark's
// serve programs, submitted as the benchmark submits them, the resumed
// jobs must report the cold job's raw report set (same count, none new
// to the store) and confirm the cold job's attacks. At this budget
// resume shortens a program's runs from its third submission on.
func TestResumeKeepsColdReports(t *testing.T) {
	s := mustNew(t, Config{Shards: 2})
	defer s.Shutdown(context.Background())
	for _, name := range []string{"libsafe", "apache", "ssdb", "mysql"} {
		spec := Spec{Workload: name, Options: SpecOptions{Budget: 16}}
		cold := waitJob(t, mustSubmit(t, s, spec)).Result
		if cold.RawReports == 0 || cold.VerifiedAttacks == 0 {
			t.Fatalf("%s: cold job found %d reports and %d attacks; the check tests nothing",
				name, cold.RawReports, cold.VerifiedAttacks)
		}
		for i := 2; i <= 3; i++ {
			st := waitJob(t, mustSubmit(t, s, spec))
			got := st.Result
			if !st.Resume || (i == 3 && got.ExecutedSchedules >= cold.ExecutedSchedules) {
				t.Errorf("%s submission %d: resume=%v with %d schedules (cold %d); the check needs a short resumed run",
					name, i, st.Resume, got.ExecutedSchedules, cold.ExecutedSchedules)
			}
			if got.RawReports != cold.RawReports || got.NewReports != 0 || got.StoreReports != cold.RawReports {
				t.Errorf("%s submission %d: %d raw reports (%d new, store %d), cold job had %d",
					name, i, got.RawReports, got.NewReports, got.StoreReports, cold.RawReports)
			}
			if got.VerifiedAttacks != cold.VerifiedAttacks {
				t.Errorf("%s submission %d: %d verified attacks, cold job had %d",
					name, i, got.VerifiedAttacks, cold.VerifiedAttacks)
			}
			if g, w := confirmedAttacks(got.SummaryText), confirmedAttacks(cold.SummaryText); !reflect.DeepEqual(g, w) {
				t.Errorf("%s submission %d: confirmed attacks differ from the cold job's:\n got %q\nwant %q", name, i, g, w)
			}
		}
	}
}

// normalizeTiming blanks the one wall-clock line in the summary
// (static analysis time) — it differs between any two runs, including
// two cmd/owl invocations of the same options.
var timingLine = regexp.MustCompile(`(?m)^(static analysis time:\s*).*$`)

func normalizeTiming(s string) string {
	return timingLine.ReplaceAllString(s, "${1}X")
}

// TestSummaryMatchesCmdOwl is the parity gate: a submitted job's
// SummaryText must be byte-identical to what cmd/owl prints for the
// same program and options, modulo the wall-clock timing line —
// cmd/owl's summary IS report.Text (see cmd/owl/main.go), so the
// comparison runs the pipeline directly with the spec's translated
// options.
func TestSummaryMatchesCmdOwl(t *testing.T) {
	specs := []Spec{
		libsafeSpec("a"),
		{Workload: "apache", Options: SpecOptions{Explore: "fixed", Runs: 8, Workers: 2}},
	}
	for _, spec := range specs {
		s := mustNew(t, Config{Shards: 1})
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("%s: submit: %v", spec.Workload, err)
		}
		st := waitJob(t, j)
		s.Shutdown(context.Background())

		prog, name, _, err := resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := spec.Options.pipeline()
		if err != nil {
			t.Fatal(err)
		}
		mode := mapped.Explore
		runs := spec.Options.Runs
		if runs <= 0 {
			runs = 8
		}
		workers := spec.Options.Workers
		if workers <= 0 {
			workers = 1
		}
		res, err := owl.Run(prog, owl.Options{
			DetectRuns: runs, Explore: mode,
			Budget: spec.Options.Budget, Seed: spec.Options.Seed, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := report.Text(name, res)
		if normalizeTiming(st.Result.SummaryText) != normalizeTiming(want) {
			t.Errorf("%s: summary diverged from cmd/owl output:\n--- serve ---\n%s\n--- cmd/owl ---\n%s",
				spec.Workload, st.Result.SummaryText, want)
		}
	}
}

// TestInlineProgramSubmission covers the -file analogue: an inline .oir
// module analyzes end to end, and resubmitting the identical source
// resumes (shared content hash) while a one-byte change gets fresh
// state.
func TestInlineProgramSubmission(t *testing.T) {
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
	s := mustNew(t, Config{Shards: 2})
	defer s.Shutdown(context.Background())
	spec := Spec{Program: src, Options: SpecOptions{Explore: "coverage", Budget: 24, Seed: 3}}

	j1, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st1 := waitJob(t, j1)
	if st1.Result.RawReports == 0 {
		t.Error("racy inline program produced no raw reports")
	}

	j2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitJob(t, j2)
	if st1.Key != st2.Key {
		t.Error("identical source hashed to different keys")
	}
	if !st2.Resume {
		t.Error("identical resubmission did not resume")
	}

	variant := spec
	variant.Program = src + "\n"
	j3, err := s.Submit(variant)
	if err != nil {
		t.Fatal(err)
	}
	st3 := waitJob(t, j3)
	if st3.Key == st1.Key {
		t.Error("changed source reused the original key")
	}
	if st3.Resume {
		t.Error("changed source resumed foreign state")
	}
	if s.store.len() != 2 {
		t.Errorf("store has %d programs, want 2", s.store.len())
	}
}

// TestFinishedJobsBounded: a server keeps only its most recent finished
// jobs. Past a lowered bound, the oldest finished jobs are forgotten —
// Job misses them, GET answers 404 and the job list skips them — while
// jobs still in flight are all kept, however many there are.
func TestFinishedJobsBounded(t *testing.T) {
	s := mustNew(t, Config{Shards: 1, QueueDepth: 100})
	defer s.Shutdown(context.Background())
	s.mu.Lock()
	s.keepJobs = 2
	s.mu.Unlock()
	release := gateRunJob(s)
	var jobs []*Job
	for i := 0; i < 5; i++ {
		j, err := s.Submit(libsafeSpec("bounded"))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		if _, ok := s.Job(j.Status().ID); !ok {
			t.Fatalf("in-flight job %s was dropped", j.Status().ID)
		}
	}
	release()
	for _, j := range jobs {
		waitJob(t, j)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// One shard runs the jobs in submission order, so the last two
	// finished last.
	for i, j := range jobs {
		id := j.Status().ID
		_, kept := s.Job(id)
		resp := mustGet(t, ts, "/v1/jobs/"+id)
		resp.Body.Close()
		want, wantCode := i >= 3, http.StatusNotFound
		if want {
			wantCode = http.StatusOK
		}
		if kept != want || resp.StatusCode != wantCode {
			t.Errorf("job %d (%s): kept=%v GET=%d, want kept=%v GET=%d", i, id, kept, resp.StatusCode, want, wantCode)
		}
	}
	var ids []string
	for _, st := range s.Jobs() {
		ids = append(ids, st.ID)
	}
	if want := []string{jobs[3].Status().ID, jobs[4].Status().ID}; !slices.Equal(ids, want) {
		t.Errorf("Jobs() = %v, want %v", ids, want)
	}
	s.mu.Lock()
	orderLen, kept := len(s.jobOrder), len(s.jobs)
	s.mu.Unlock()
	if orderLen > 2*kept {
		t.Errorf("submission order holds %d IDs for %d kept jobs", orderLen, kept)
	}
}
