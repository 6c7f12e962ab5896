package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/owl"
	"github.com/conanalysis/owl/internal/serve"
	"github.com/conanalysis/owl/internal/serve/persist"
	"github.com/conanalysis/owl/internal/workloads"
)

// serveBudget is the coverage budget of every serve submission.
const serveBudget = 16

// serveAttacks is each serve-mixed program's verified-attack count at
// serveBudget, the same for cold and resumed jobs.
var serveAttacks = map[string]int{"apache": 7, "libsafe": 3, "mysql": 3, "ssdb": 17}

// servePrograms are the repeated programs of serve-mixed; each cold
// program is a tagged copy of one of them.
var servePrograms = []string{"libsafe", "apache", "ssdb", "mysql"}

// Retry budget for a submission the server refuses with 429.
const (
	maxSubmitAttempts = 20
	jobTimeout        = 60 * time.Second
)

var errRefused = errors.New("refused past the retry budget")

// server is an in-process serve.Server behind a loopback TCP listener.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	base   string
	dir    string
	client *http.Client
}

// startServer boots a server with the default Config plus dir as its
// state directory.
func startServer(dir string) (*server, error) {
	srv, err := serve.New(serve.Config{StateDir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	s := &server{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		dir:    dir,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 2 * runtime.NumCPU(),
			DisableCompression:  true,
		}},
	}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln)
	}()
	return s, nil
}

// stop closes the listener, waits for open requests and the serve loop,
// then drains the server, which checkpoints every program.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.served
	s.client.CloseIdleConnections()
	if serr := s.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// jobTiming is what the client saw of one job.
type jobTiming struct {
	submit   time.Time // first POST
	accepted time.Time // 202 received
	running  time.Time // first event in state running (zero if none seen)
	done     time.Time // terminal event
	rejected int       // 429 answers before acceptance
	status   serve.JobStatus
}

// submit pushes one job through the HTTP API: POST, retrying 429s with a
// doubling back-off, then the job's SSE stream until its terminal event.
func (s *server) submit(spec serve.Spec) (jobTiming, error) {
	var jt jobTiming
	body, err := json.Marshal(spec)
	if err != nil {
		return jt, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	jt.submit = time.Now()
	backoff := 5 * time.Millisecond
	for {
		code, resp, err := s.do(ctx, "POST", "/v1/jobs", body)
		if err != nil {
			return jt, err
		}
		if code == http.StatusAccepted {
			jt.accepted = time.Now()
			if err := json.Unmarshal(resp, &jt.status); err != nil {
				return jt, err
			}
			break
		}
		if code != http.StatusTooManyRequests {
			return jt, fmt.Errorf("submit: status %d: %s", code, resp)
		}
		jt.rejected++
		if jt.rejected >= maxSubmitAttempts {
			return jt, errRefused
		}
		time.Sleep(backoff)
		backoff = min(2*backoff, 200*time.Millisecond)
	}
	req, err := http.NewRequestWithContext(ctx, "GET", s.base+"/v1/jobs/"+jt.status.ID+"/stream", nil)
	if err != nil {
		return jt, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return jt, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jt, fmt.Errorf("stream: status %d", resp.StatusCode)
	}
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadString('\n')
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var st serve.JobStatus
			if err := json.Unmarshal([]byte(data), &st); err != nil {
				return jt, fmt.Errorf("stream event: %w", err)
			}
			now := time.Now()
			switch st.State {
			case serve.StateRunning:
				if jt.running.IsZero() {
					jt.running = now
				}
			case serve.StateDone, serve.StateFailed:
				jt.done, jt.status = now, st
				return jt, nil
			}
		}
		if err != nil {
			return jt, fmt.Errorf("stream ended before the job did: %w", err)
		}
	}
}

func (s *server) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// scrape reads the live /metrics snapshot.
func (s *server) scrape() (*metrics.Report, error) {
	code, data, err := s.do(context.Background(), "GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", code)
	}
	var r metrics.Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	return &r, nil
}

// serveStats accumulates the client-side phase timings of serve jobs.
type serveStats struct {
	mu                             sync.Mutex
	admit, queue, warmRun, coldRun []float64
	schedules                      []float64
	rejected                       int
	unobserved                     int // jobs whose running event came before the stream opened
}

// record adds one finished job and, traced, its spans: the job from
// first POST to terminal event, with admission, queueing and running as
// children.
func (st *serveStats) record(jt jobTiming, tr *Tracer) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if jt.running.IsZero() && jt.status.Result != nil {
		// The job finished before its stream was open: take the running
		// edge from the run time the server reports.
		st.unobserved++
		run := time.Duration(jt.status.Result.ElapsedMS * float64(time.Millisecond))
		jt.running = jt.done.Add(-run)
		if jt.running.Before(jt.accepted) {
			jt.running = jt.accepted
		}
	}
	if tr != nil {
		job := jt.status.ID
		id := tr.Add("serve.job", job, 0, jt.submit, jt.done)
		tr.Add("serve.admit", job, id, jt.submit, jt.accepted)
		if !jt.running.IsZero() {
			tr.Add("serve.queue", job, id, jt.accepted, jt.running)
			tr.Add("serve.run", job, id, jt.running, jt.done)
		}
	}
	st.rejected += jt.rejected
	st.admit = append(st.admit, ms(jt.accepted.Sub(jt.submit)))
	if !jt.running.IsZero() {
		st.queue = append(st.queue, ms(jt.running.Sub(jt.accepted)))
		if jt.status.Resume {
			st.warmRun = append(st.warmRun, ms(jt.done.Sub(jt.running)))
		} else {
			st.coldRun = append(st.coldRun, ms(jt.done.Sub(jt.running)))
		}
	}
	if r := jt.status.Result; r != nil {
		st.schedules = append(st.schedules, float64(r.ExecutedSchedules))
	}
}

// fill writes the serve.* and persist.* metrics from the client timings
// and the /metrics difference over the measured jobs.
func (st *serveStats) fill(out map[string]float64, before, after *metrics.Report) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.unobserved > 0 {
		logf("%d serve job(s) finished before their stream opened; their running edge is done minus elapsed_ms", st.unobserved)
	}
	out["serve.admit_ms"] = median(st.admit)
	out["serve.queue_wait_ms"] = medianOrZero(st.queue)
	out["serve.run_ms.warm"] = medianOrZero(st.warmRun)
	out["serve.run_ms.cold"] = medianOrZero(st.coldRun)
	out["serve.rejected_429"] = float64(st.rejected)
	d := func(name string) int64 { return counter(after, name) - counter(before, name) }
	jobs := d("serve.jobs_completed")
	out["serve.resume_hit_frac"] = ratio(d("serve.resume_hits"), d("serve.resume_hits")+d("serve.resume_misses"))
	out["persist.wal_records_per_job"] = ratio(d("serve.persist_wal_records"), jobs)
	out["persist.wal_bytes_per_job"] = ratio(d("serve.persist_wal_bytes"), jobs)
}

func medianOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func counter(r *metrics.Report, name string) int64 {
	for _, c := range r.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

func stageWall(r *metrics.Report, name string) time.Duration {
	for _, s := range r.Stages {
		if s.Name == name {
			return s.Wall
		}
	}
	return 0
}

// persistProbe stops s and measures the store on the state it left:
// recovery is one serve.New over the directory (median of three), and a
// checkpoint is one Log.Checkpoint rewriting a recovered program's
// current state (median over the programs).
func persistProbe(s *server, tr *Tracer, out map[string]float64) error {
	if err := s.stop(); err != nil {
		return err
	}
	var recovery []float64
	for i := 0; i < 3; i++ {
		var srv *serve.Server
		d, err := timed(tr, "persist.recover", "persist", 0, func() (err error) {
			srv, err = serve.New(serve.Config{StateDir: s.dir})
			return err
		})
		if err != nil {
			return err
		}
		recovery = append(recovery, ms(d))
		if err := srv.Shutdown(context.Background()); err != nil {
			return err
		}
	}
	_, recovered, err := persist.Open(s.dir, persist.Options{})
	if err != nil {
		return err
	}
	var ckpt []float64
	for _, rec := range recovered {
		d, err := timed(tr, "persist.checkpoint", "persist", 0, func() error {
			return rec.Log.Checkpoint(rec.Checkpoint)
		})
		rec.Log.Close()
		if err != nil {
			return err
		}
		ckpt = append(ckpt, ms(d))
	}
	out["persist.recovery_ms"] = median(recovery)
	out["persist.checkpoint_ms"] = median(ckpt)
	return nil
}

// serveProbe measures the serve and persist layers on a batch workload's
// own programs: a fresh server, each program submitted once cold and
// once resumed.
func serveProbe(tr *Tracer, programs []string, noise string, out map[string]float64, t *tally) error {
	dir, err := os.MkdirTemp(outDir, "serve-probe-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s, err := startServer(dir)
	if err != nil {
		return err
	}
	before, err := s.scrape()
	if err != nil {
		s.stop()
		return err
	}
	st := &serveStats{}
	for _, p := range programs {
		spec := serve.Spec{Workload: p, Noise: noise, Options: serve.SpecOptions{Budget: serveBudget}}
		attacks := -1
		for i := 0; i < 2; i++ {
			jt, err := s.submit(spec)
			if err != nil {
				t.fail(failError, fmt.Sprintf("serve %s: %v", p, err))
				continue
			}
			st.record(jt, tr)
			switch {
			case jt.status.State != serve.StateDone:
				t.fail(failError, fmt.Sprintf("serve %s: %s", p, jt.status.Error))
			case attacks >= 0 && jt.status.Result.VerifiedAttacks != attacks:
				t.fail(failMismatch, fmt.Sprintf("serve %s: resumed job found %d attacks, cold %d", p, jt.status.Result.VerifiedAttacks, attacks))
			default:
				attacks = jt.status.Result.VerifiedAttacks
				t.ok()
			}
		}
	}
	after, err := s.scrape()
	if err != nil {
		s.stop()
		return err
	}
	st.fill(out, before, after)
	return persistProbe(s, tr, out)
}

// coldBase is a serve program in inline .oir form, the source of the
// cold submissions.
type coldBase struct {
	name     string
	src      string
	inputs   []int64
	maxSteps int
}

// serveMixEnv is serve-mixed: closed-loop clients over loopback TCP
// against one in-process server.
type serveMixEnv struct {
	seed  uint64
	srv   *server
	bases []coldBase // one per servePrograms entry
	next  atomic.Int64

	stats         *serveStats // traced pass
	before, after *metrics.Report
}

var serveMixed = workload{
	name: "serve-mixed",
	setup: func(seed uint64, buildMS *[]float64) (env, error) {
		e := &serveMixEnv{seed: seed}
		for _, n := range servePrograms {
			start := time.Now()
			t, err := workloadTarget(n, workloads.NoiseLight)
			if err != nil {
				return nil, err
			}
			src := t.prog.Module.Format()
			if _, err := ir.Parse("submitted.oir", coldSource(src, 0)); err != nil {
				return nil, fmt.Errorf("inline %s: %w", n, err)
			}
			*buildMS = append(*buildMS, ms(time.Since(start)))
			e.bases = append(e.bases, coldBase{name: n, src: src, inputs: t.prog.Inputs, maxSteps: t.prog.MaxSteps})
		}
		dir, err := os.MkdirTemp(outDir, "serve-mixed-*")
		if err != nil {
			return nil, err
		}
		if e.srv, err = startServer(dir); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		// Warm-up: every repeated program twice. Resume trims a program's
		// schedules from its third submission on and stays there, so the
		// timed pass starts in that steady state.
		for _, n := range servePrograms {
			for i := 0; i < 2; i++ {
				jt, err := e.srv.submit(warmSpec(n))
				if err == nil && jt.status.State != serve.StateDone {
					err = errors.New(jt.status.Error)
				}
				if err != nil {
					e.close()
					return nil, fmt.Errorf("warm-up %s: %w", n, err)
				}
			}
		}
		return e, nil
	},
}

func warmSpec(name string) serve.Spec {
	return serve.Spec{Workload: name, Options: serve.SpecOptions{Budget: serveBudget}}
}

// coldSource makes a distinct program from base by appending an unused
// global; it lands after every other global, so the analysis result is
// the base program's.
func coldSource(base string, tag int64) string {
	return fmt.Sprintf("%s\nglobal @owlbench_tag = %d\n", base, tag)
}

// cycleLen is the length of the submission rotation: four rounds over
// servePrograms.
var cycleLen = int64(len(servePrograms) * len(servePrograms))

// slotAt places submission k in the rotation, the even mix
// tools/loadgen uses too: each round submits every program once in the
// order of servePrograms, and round r sends program r as a new copy. So
// three of every four submissions repeat a program and the fourth is new.
func slotAt(k int64) (prog int, cold bool) {
	n := int64(len(servePrograms))
	prog = int(k % n)
	return prog, int64(prog) == (k/n)%n
}

// spec returns submission k and its program's name. A cold submission
// is a copy with a tag drawn from the seed that no other submission of
// the run has.
func (e *serveMixEnv) spec(k int64) (serve.Spec, string) {
	prog, cold := slotAt(k)
	if !cold {
		return warmSpec(servePrograms[prog]), servePrograms[prog]
	}
	b := e.bases[prog]
	return serve.Spec{
		Program: coldSource(b.src, int64(splitmix(e.seed)>>1)^k),
		Inputs:  b.inputs,
		Options: serve.SpecOptions{Budget: serveBudget, MaxSteps: b.maxSteps},
	}, b.name
}

// roundUp rounds k up to a multiple of n.
func roundUp(k, n int64) int64 { return (k + n - 1) / n * n }

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (e *serveMixEnv) close() {
	if e.srv == nil {
		return
	}
	if err := e.srv.stop(); err != nil {
		logf("stop server: %v", err)
	}
	os.RemoveAll(e.srv.dir)
	e.srv = nil
}

func (e *serveMixEnv) pass(d time.Duration, tr *Tracer) (*passResult, error) {
	pr := &passResult{tally: newTally()}
	st := &serveStats{}
	before, err := e.srv.scrape()
	if err != nil {
		return nil, err
	}
	clients := runtime.NumCPU()
	var (
		mu sync.Mutex
		wg sync.WaitGroup
		// stop is the first submission past the pass: once d is up, the
		// end of the rotation cycle in progress, so a pass is made of
		// whole cycles and every pass submits the same mix.
		stop atomic.Int64
	)
	stop.Store(math.MaxInt64)
	e.next.Store(roundUp(e.next.Load(), cycleLen))
	runtime.GC()
	heap := startHeapSampler(time.Millisecond)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if time.Since(start) >= d {
					stop.CompareAndSwap(math.MaxInt64, roundUp(e.next.Load(), cycleLen))
				}
				k := e.next.Add(1) - 1
				if k >= stop.Load() {
					return
				}
				spec, prog := e.spec(k)
				jt, err := e.srv.submit(spec)
				switch {
				case errors.Is(err, errRefused):
					st.mu.Lock()
					st.rejected += jt.rejected
					st.mu.Unlock()
					pr.tally.fail(failRefused, prog)
					continue
				case err != nil:
					pr.tally.fail(failError, fmt.Sprintf("%s: %v", prog, err))
					continue
				}
				st.record(jt, tr)
				switch {
				case jt.status.State != serve.StateDone:
					pr.tally.fail(failError, fmt.Sprintf("%s: %s", prog, jt.status.Error))
				case jt.status.Result.VerifiedAttacks != serveAttacks[prog]:
					pr.tally.fail(failMismatch, fmt.Sprintf("%s: %d verified attacks, want %d", prog, jt.status.Result.VerifiedAttacks, serveAttacks[prog]))
				default:
					pr.tally.ok()
					mu.Lock()
					pr.jobs++
					pr.latMS = append(pr.latMS, ms(jt.done.Sub(jt.submit)))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	pr.elapsed = time.Since(start)
	pr.peakMB = heap.stop()
	if tr != nil {
		e.stats, e.before = st, before
		if e.after, err = e.srv.scrape(); err != nil {
			return nil, err
		}
	}
	return pr, nil
}

func (e *serveMixEnv) layers(tr *Tracer, out map[string]float64, t *tally) error {
	e.stats.fill(out, e.before, e.after)
	d := func(name string) float64 { return ms(stageWall(e.after, name) - stageWall(e.before, name)) }
	jobs := float64(counter(e.after, "serve.jobs_completed") - counter(e.before, "serve.jobs_completed"))
	sum := 0.0
	for _, s := range stages {
		out[s+"_ms"] = d(s) / jobs
		sum += d(s)
	}
	out["owl.job_ms"] = d("owl.total") / jobs
	out["owl.self_ms"] = (d("owl.total") - sum) / jobs
	out["sched.runs_per_job"] = mean(e.stats.schedules)

	// The layer probes run the repeated programs under the submissions'
	// options, each once through owl.Run for the verifier probes' input.
	var probes []*target
	for _, n := range servePrograms {
		tg, err := workloadTarget(n, workloads.NoiseLight)
		if err != nil {
			return err
		}
		res, err := owl.Run(tg.prog, owl.Options{Explore: owl.ExploreCoverage, Budget: serveBudget})
		if err != nil {
			t.fail(failError, fmt.Sprintf("probe %s: %v", n, err))
			return err
		}
		t.ok()
		tg.sample = res
		probes = append(probes, &tg)
	}
	if err := probeLayers(tr, probes, 0, serveBudget, out); err != nil {
		return err
	}
	err := persistProbe(e.srv, tr, out)
	os.RemoveAll(e.srv.dir)
	e.srv = nil
	return err
}
