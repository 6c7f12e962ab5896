// Command loadgen is the in-process load harness behind `make loadtest`:
// it stands up the serve API (handler-level, no sockets), drives
// thousands of concurrent submissions through the full HTTP path —
// submit, 429-with-Retry-After backoff, poll to completion — and emits
// a test2json-compatible stream of BenchmarkServeLoadtest rows (p50/p99/
// mean submit-to-done latency and sustained throughput) plus the serve
// counter totals, so `make bench-summary` folds BENCH_serve.json in
// with the other benchmark streams unchanged.
//
// The workload mix deliberately resubmits a small program set over and
// over: that is the service's design center (accumulated exploration
// state), so the steady state measures *resumed* analyses and the
// serve.resume_hits counter must come back hot.
//
// After the load phase the harness runs the fleet warm-start scenario
// (unless -fleet=false): the same repeat-heavy program mix is routed
// across N replicas three times — one single server (the byte-identity
// reference), N isolated replicas, and N replicas peered via -peers
// style replication — and the run fails unless the peered fleet
// executes at least 30% fewer schedules than the isolated one, at
// least one program was warmed by a peer fetch, and every job's
// analysis summary is byte-identical to the single-server reference.
// The totals land as BenchmarkServeFleet rows in the same stream.
//
// Usage:
//
//	loadgen [-submissions 5000] [-concurrency 1000] [-profile full|short]
//	        [-shards 8] [-queue 256] [-quota 0] [-tcp] [-fleet]
//	        [-replicas 3] > BENCH_serve.json
//
// By default everything runs in-process at the handler level (the CI
// default: no ports, no flaky socket limits). -tcp binds every server
// — load phase, restart phase, and all fleet replicas — to real
// 127.0.0.1 listeners and drives them through net/http clients, so the
// same harness doubles as a smoke test of the wire path.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/conanalysis/owl/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

type counters struct {
	completed   atomic.Int64
	failed      atomic.Int64
	rejected429 atomic.Int64
	retries     atomic.Int64
}

func run(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	submissions := fs.Int("submissions", 5000, "total jobs to push through the service")
	concurrency := fs.Int("concurrency", 1000, "concurrent submitter goroutines")
	profile := fs.String("profile", "full", "full | short (short halves the job count for CI)")
	shards := fs.Int("shards", 8, "server shard count")
	queue := fs.Int("queue", 256, "per-shard queue depth")
	quota := fs.Int("quota", 0, "per-tenant quota (0 = effectively unlimited for the load mix)")
	tenants := fs.Int("tenants", 16, "distinct tenants in the submission mix")
	restart := fs.Bool("restart", true, "after the load phase, simulate kill -9 and verify resume hits continue from disk")
	tcp := fs.Bool("tcp", false, "drive real 127.0.0.1 listeners instead of in-process handlers")
	fleet := fs.Bool("fleet", true, "run the multi-replica warm-start scenario after the load phase")
	replicas := fs.Int("replicas", 3, "replica count for the fleet scenario")
	if err := fs.Parse(args); err != nil {
		return err
	}
	n := *submissions
	if *profile == "short" {
		n = 1200
	} else if *profile != "full" {
		return fmt.Errorf("unknown profile %q", *profile)
	}
	conc := *concurrency
	if conc > n {
		conc = n
	}
	q := *quota
	if q == 0 {
		// The point of the harness is queue backpressure, not quota
		// starvation: give every tenant room for its share of the fleet.
		q = conc
	}
	if *replicas < 2 {
		return fmt.Errorf("-replicas must be at least 2")
	}

	stateDir := ""
	if *restart {
		dir, err := os.MkdirTemp("", "owl-serve-load-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		stateDir = dir
	}
	cfg := serve.Config{
		Shards:      *shards,
		QueueDepth:  *queue,
		TenantQuota: q,
		RetryAfter:  10 * time.Millisecond,
		StateDir:    stateDir,
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	tg, stop, err := newTarget(srv.Handler(), *tcp)
	if err != nil {
		return err
	}

	// The submission mix: a handful of distinct programs cycled across
	// all jobs, so nearly every job after the warmup is a resume hit.
	specs := mix()

	var c counters
	latencies := make([]time.Duration, n)
	var wg sync.WaitGroup
	next := make(chan int)
	go func() {
		for i := 0; i < n; i++ {
			next <- i
		}
		close(next)
	}()

	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range next {
				spec := specs[i%len(specs)]
				spec.Tenant = "tenant-" + strconv.Itoa(i%*tenants)
				_, d, err := submitAndWait(tg, spec, &c)
				if err != nil {
					c.failed.Add(1)
					continue
				}
				latencies[i] = d
				c.completed.Add(1)
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	stop()

	// The kill/restart scenario deliberately skips srv.Shutdown: the
	// first server is abandoned mid-flight (the in-process analogue of
	// kill -9, no drain-time checkpoint), so recovery must come from the
	// WAL. The second server boots from the same state dir and every
	// program in the mix must come back as a resume hit.
	var rs *restartStats
	if *restart {
		rs, err = restartScenario(cfg, specs, *tcp)
		if err != nil {
			return err
		}
	} else if err := srv.Shutdown(context.Background()); err != nil {
		return err
	}

	var fst *fleetStats
	if *fleet {
		fst, err = fleetScenario(*replicas, *tcp)
		if err != nil {
			return err
		}
	}

	return report(os.Stdout, srv, &c, latencies, wall, n, conc, rs, fst)
}

// target is one server the harness can drive: an in-process handler
// (the CI default) or, with -tcp, a real listener's base URL.
type target struct {
	h      http.Handler
	base   string
	client *http.Client
}

// newTarget wraps a handler for the harness. With tcp it binds a real
// 127.0.0.1 listener and returns a closer that tears it down; in
// handler mode the closer is a no-op.
func newTarget(h http.Handler, tcp bool) (*target, func(), error) {
	if !tcp {
		return &target{h: h}, func() {}, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	tr := &http.Transport{MaxIdleConnsPerHost: 256}
	tg := &target{base: "http://" + ln.Addr().String(), client: &http.Client{Transport: tr}}
	return tg, func() { hs.Close(); tr.CloseIdleConnections() }, nil
}

// do pushes one request at the target and returns status and body. The
// body is fully drained before returning, so an SSE stream blocks until
// the server closes it at the terminal event — same semantics as the
// recorder path.
func (t *target) do(method, path string, body []byte) (int, []byte, error) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	if t.h != nil {
		rec := httptest.NewRecorder()
		t.h.ServeHTTP(rec, httptest.NewRequest(method, path, r))
		return rec.Code, rec.Body.Bytes(), nil
	}
	req, err := http.NewRequest(method, t.base+path, r)
	if err != nil {
		return 0, nil, err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

// restartStats is what the kill/restart phase measures: how long boot
// recovery took and whether the warm state survived the crash.
type restartStats struct {
	recovery  time.Duration
	resumed   int
	submitted int
}

// restartScenario boots a fresh server over the dead one's state dir,
// resubmits every program in the mix, and requires each to resume from
// the recovered state.
func restartScenario(cfg serve.Config, specs []serve.Spec, tcp bool) (*restartStats, error) {
	cfg.Metrics = nil // fresh collector: count only post-restart activity
	bootStart := time.Now()
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	rs := &restartStats{recovery: time.Since(bootStart)}
	tg, stop, err := newTarget(srv.Handler(), tcp)
	if err != nil {
		return nil, err
	}
	defer stop()
	var c counters
	for _, spec := range specs {
		spec.Tenant = "restart-check"
		if _, _, err := submitAndWait(tg, spec, &c); err != nil {
			return nil, fmt.Errorf("restart resubmission: %w", err)
		}
		rs.submitted++
	}
	for _, cr := range srv.Metrics().Snapshot().Counters {
		if cr.Name == "serve.resume_hits" {
			rs.resumed = int(cr.Value)
		}
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		return nil, err
	}
	if rs.resumed != rs.submitted {
		return rs, fmt.Errorf("restart: %d/%d resubmissions resumed — state did not survive the crash", rs.resumed, rs.submitted)
	}
	return rs, nil
}

// mix returns the program rotation. Mostly built-in workloads at small
// coverage budgets (seed fixed so repeat submissions resume
// deterministically), plus one inline module exercising the -file path.
func mix() []serve.Spec {
	cov := func(workload string) serve.Spec {
		return serve.Spec{
			Workload: workload,
			Options:  serve.SpecOptions{Explore: "coverage", Budget: 16, Seed: 7},
		}
	}
	const inline = `
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
	return []serve.Spec{
		cov("libsafe"),
		cov("apache"),
		cov("ssdb"),
		{Program: inline, Options: serve.SpecOptions{Explore: "coverage", Budget: 16, Seed: 7}},
	}
}

// submitAndWait pushes one job through the HTTP path: POST with
// Retry-After-honoring backoff, then a blocking GET of the job's SSE
// stream — the stream handler parks in a channel select until the job
// reaches a terminal state, so a thousand concurrent waiters cost no
// CPU (busy-polling the status endpoint starves the shard workers on
// small machines). The returned duration is first-submit-attempt to
// done — queueing and backpressure time counts, exactly what a client
// experiences.
func submitAndWait(tg *target, spec serve.Spec, c *counters) (serve.JobStatus, time.Duration, error) {
	var st serve.JobStatus
	body, err := json.Marshal(spec)
	if err != nil {
		return st, 0, err
	}
	start := time.Now()
	backoff := 2 * time.Millisecond
	for attempt := 0; ; attempt++ {
		code, resp, err := tg.do("POST", "/v1/jobs", body)
		if err != nil {
			return st, 0, err
		}
		if code == http.StatusAccepted {
			if err := json.Unmarshal(resp, &st); err != nil {
				return st, 0, err
			}
			break
		}
		if code == http.StatusTooManyRequests {
			c.rejected429.Add(1)
			c.retries.Add(1)
			if attempt > 10_000 {
				return st, 0, fmt.Errorf("starved after %d attempts", attempt)
			}
			time.Sleep(backoff)
			if backoff < 100*time.Millisecond {
				backoff *= 2
			}
			continue
		}
		return st, 0, fmt.Errorf("submit: status %d: %s", code, resp)
	}
	code, resp, err := tg.do("GET", "/v1/jobs/"+st.ID+"/stream", nil)
	if err != nil {
		return st, 0, err
	}
	if code != http.StatusOK {
		return st, 0, fmt.Errorf("stream: status %d", code)
	}
	final, err := lastSSEData(string(resp))
	if err != nil {
		return st, 0, err
	}
	if err := json.Unmarshal([]byte(final), &st); err != nil {
		return st, 0, err
	}
	switch st.State {
	case serve.StateDone:
		return st, time.Since(start), nil
	case serve.StateFailed:
		return st, 0, fmt.Errorf("job failed: %s", st.Error)
	default:
		return st, 0, fmt.Errorf("stream ended in state %q", st.State)
	}
}

// lastSSEData returns the data payload of the final event in a complete
// SSE body.
func lastSSEData(body string) (string, error) {
	var last string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "data: ") {
			last = strings.TrimPrefix(line, "data: ")
		}
	}
	if last == "" {
		return "", fmt.Errorf("stream carried no events")
	}
	return last, nil
}

// ---------------------------------------------------------------------------
// Fleet warm-start scenario
// ---------------------------------------------------------------------------

// fleetStats is what the multi-replica scenario measures: total
// executed schedules per topology, how the warmth moved, and whether
// the analysis results stayed byte-identical.
type fleetStats struct {
	replicas     int
	programs     int
	jobs         int
	single       int64 // one server, whole schedule — byte-identity reference
	isolated     int64 // N replicas, no peers
	fleet        int64 // N replicas peered
	fetchHits    int64 // cold misses warmed by a peer fetch
	serveHits    int64 // state blobs served to peers
	savings      float64
	identical    bool
	isolatedWall time.Duration
	fleetWall    time.Duration
}

// fleetMix is the repeat-heavy program set the fleet scenario routes
// across replicas. Heavier on programs whose exploration saturates
// (libsafe at both noise levels and two small inline modules resume to
// a fixed dry-round floor no matter the budget) with two larger
// workloads for diversity. apache and ssdb are deliberately absent:
// their high-budget summaries are not stable across resumed runs, and
// the scenario demands byte-identity.
func fleetMix() []serve.Spec {
	cov := func(workload, noise string, budget int) serve.Spec {
		return serve.Spec{
			Workload: workload,
			Noise:    noise,
			Options:  serve.SpecOptions{Explore: "coverage", Budget: budget, Seed: 7},
		}
	}
	const inlineA = `
global @x = 0
global @y = 0

func @worker() {
entry:
  store 1, @x
  %a = load @y
  store 2, @y
  ret 0
}
func @main() {
entry:
  %t = call @spawn(@worker)
  %v = load @x
  store 5, @y
  %w = load @y
  %r = call @join(%t)
  ret 0
}
`
	const inlineB = `
global @a = 0
global @b = 0

func @writer() {
entry:
  store 7, @a
  store 8, @b
  %x = load @a
  ret 0
}
func @main() {
entry:
  %t = call @spawn(@writer)
  %p = load @b
  store 9, @a
  %q = load @a
  %r = call @join(%t)
  ret 0
}
`
	return []serve.Spec{
		cov("libsafe", "", 48),
		cov("libsafe", "full", 48),
		{Program: inlineA, Options: serve.SpecOptions{Explore: "coverage", Budget: 48, Seed: 7}},
		{Program: inlineB, Options: serve.SpecOptions{Explore: "coverage", Budget: 48, Seed: 7}},
		cov("memcached", "", 24),
		cov("mysql", "", 24),
	}
}

// fleetSlot is one submission in the fleet schedule: which program and
// which replica receives it.
type fleetSlot struct{ spec, replica int }

// fleetSchedule routes every program to every replica exactly once —
// the repeat-heavy shape the fleet exists for — in a seeded random
// order, so the replica that pays a program's cold start varies across
// programs but is identical between the isolated and peered passes.
func fleetSchedule(nspecs, replicas int) []fleetSlot {
	slots := make([]fleetSlot, 0, nspecs*replicas)
	for p := 0; p < nspecs; p++ {
		for r := 0; r < replicas; r++ {
			slots = append(slots, fleetSlot{p, (p + r) % replicas})
		}
	}
	rng := rand.New(rand.NewSource(11))
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	return slots
}

// fleetTransport routes peer requests between in-process replicas: the
// host part of a peer URL ("replica-0") selects a registered handler.
// This is the handler-level analogue of the real wire — the replicate
// client still builds full HTTP requests and parses full responses.
type fleetTransport struct {
	mu       sync.Mutex
	handlers map[string]http.Handler
}

func (ft *fleetTransport) register(host string, h http.Handler) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.handlers[host] = h
}

func (ft *fleetTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ft.mu.Lock()
	h := ft.handlers[req.URL.Host]
	ft.mu.Unlock()
	if h == nil {
		return nil, fmt.Errorf("no such replica %q", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// timingLine matches the one wall-clock line in an analysis summary; it
// differs between any two runs, so byte-identity is checked modulo it
// (same normalization as the serve parity tests).
var timingLine = regexp.MustCompile(`(?m)^(static analysis time:\s*).*$`)

func normalizeTiming(s string) string {
	return timingLine.ReplaceAllString(s, "${1}X")
}

// fleetScenario proves the warm-start claim end to end. It runs the
// same routed schedule three times — single server, N isolated
// replicas, N peered replicas — and fails the run unless the peered
// fleet executed ≥30% fewer schedules than the isolated one, at least
// one replica was warmed by a peer fetch, and every job's summary is
// byte-identical to the single-server reference.
func fleetScenario(replicas int, tcp bool) (*fleetStats, error) {
	specs := fleetMix()
	slots := fleetSchedule(len(specs), replicas)
	singleSlots := make([]fleetSlot, len(slots))
	for i, sl := range slots {
		singleSlots[i] = fleetSlot{sl.spec, 0}
	}

	single, err := runFleetPass(1, false, tcp, specs, singleSlots)
	if err != nil {
		return nil, fmt.Errorf("fleet reference pass: %w", err)
	}
	isolated, err := runFleetPass(replicas, false, tcp, specs, slots)
	if err != nil {
		return nil, fmt.Errorf("fleet isolated pass: %w", err)
	}
	peered, err := runFleetPass(replicas, true, tcp, specs, slots)
	if err != nil {
		return nil, fmt.Errorf("fleet peered pass: %w", err)
	}

	fst := &fleetStats{
		replicas:     replicas,
		programs:     len(specs),
		jobs:         len(slots),
		single:       single.schedules,
		isolated:     isolated.schedules,
		fleet:        peered.schedules,
		fetchHits:    peered.fetchHits,
		serveHits:    peered.serveHits,
		isolatedWall: isolated.wall,
		fleetWall:    peered.wall,
		identical:    true,
	}
	for i := range slots {
		if peered.summaries[i] != single.summaries[i] {
			fst.identical = false
			break
		}
	}
	fst.savings = 1 - float64(fst.fleet)/float64(fst.isolated)

	if fst.fleet >= fst.isolated {
		return fst, fmt.Errorf("fleet: peered replicas executed %d schedules, isolated %d — replication saved nothing", fst.fleet, fst.isolated)
	}
	if fst.savings < 0.30 {
		return fst, fmt.Errorf("fleet: savings %.1f%% below the 30%% warm-start target (peered %d vs isolated %d)", 100*fst.savings, fst.fleet, fst.isolated)
	}
	if fst.fetchHits == 0 {
		return fst, fmt.Errorf("fleet: no replica cold start was warmed by a peer fetch")
	}
	if !fst.identical {
		return fst, fmt.Errorf("fleet: analysis summaries diverged from the single-server reference")
	}
	return fst, nil
}

// passResult is one topology's run of the fleet schedule.
type passResult struct {
	schedules int64
	summaries []string
	fetchHits int64
	serveHits int64
	wall      time.Duration
}

// runFleetPass stands up n replicas (peered or not), drives the routed
// schedule through them sequentially, and sums executed schedules and
// replication counters. Every replica gets its own state directory:
// with persistence on, anti-entropy pushes ride the checkpoint-fold and
// drain cadence only, so mid-pass warmth must arrive via the cold-miss
// fetch path — the thing the scenario is proving.
func runFleetPass(n int, peered, tcp bool, specs []serve.Spec, slots []fleetSlot) (pr passResult, err error) {
	urls := make([]string, n)
	var ft *fleetTransport
	var lns []net.Listener
	if tcp {
		lns = make([]net.Listener, n)
		for i := range lns {
			if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
				return pr, err
			}
			urls[i] = "http://" + lns[i].Addr().String()
		}
	} else {
		ft = &fleetTransport{handlers: map[string]http.Handler{}}
		for i := range urls {
			urls[i] = fmt.Sprintf("http://replica-%d", i)
		}
	}

	servers := make([]*serve.Server, n)
	targets := make([]*target, n)
	var stops []func()
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	for i := 0; i < n; i++ {
		dir, derr := os.MkdirTemp("", "owl-fleet-")
		if derr != nil {
			return pr, derr
		}
		stops = append(stops, func() { os.RemoveAll(dir) })
		cfg := serve.Config{
			Shards:      2,
			QueueDepth:  64,
			TenantQuota: 64,
			RetryAfter:  5 * time.Millisecond,
			StateDir:    dir,
		}
		if peered {
			for j, u := range urls {
				if j != i {
					cfg.Peers = append(cfg.Peers, u)
				}
			}
			cfg.PeerBackoff = time.Millisecond
			if !tcp {
				cfg.PeerClient = &http.Client{Transport: ft}
			}
		}
		srv, serr := serve.New(cfg)
		if serr != nil {
			return pr, serr
		}
		servers[i] = srv
		h := srv.Handler()
		if tcp {
			hs := &http.Server{Handler: h}
			ln := lns[i]
			go hs.Serve(ln)
			stops = append(stops, func() { hs.Close() })
			targets[i] = &target{base: urls[i], client: &http.Client{}}
		} else {
			ft.register("replica-"+strconv.Itoa(i), h)
			targets[i] = &target{h: h}
		}
	}

	var c counters
	start := time.Now()
	for _, sl := range slots {
		spec := specs[sl.spec]
		spec.Tenant = "fleet"
		st, _, serr := submitAndWait(targets[sl.replica], spec, &c)
		if serr != nil {
			return pr, serr
		}
		pr.schedules += int64(st.Result.ExecutedSchedules)
		pr.summaries = append(pr.summaries, normalizeTiming(st.Result.SummaryText))
	}
	pr.wall = time.Since(start)

	// Counters are read before shutdown: the drain-time anti-entropy
	// sweep would otherwise add pushes that the pass never relied on.
	for _, srv := range servers {
		for _, cr := range srv.Metrics().Snapshot().Counters {
			switch cr.Name {
			case "serve.replica_fetch_hits":
				pr.fetchHits += cr.Value
			case "serve.replica_serve_hits":
				pr.serveHits += cr.Value
			}
		}
	}
	for _, srv := range servers {
		if err := srv.Shutdown(context.Background()); err != nil {
			return pr, err
		}
	}
	return pr, nil
}

// report writes the BENCH_serve.json stream: benchmark result rows the
// benchfmt parser ingests, wrapped as test2json output events, plus a
// human-readable summary line carrying the counter totals.
func report(w *os.File, srv *serve.Server, c *counters, latencies []time.Duration, wall time.Duration, n, conc int, rs *restartStats, fst *fleetStats) error {
	done := make([]time.Duration, 0, len(latencies))
	for _, d := range latencies {
		if d > 0 {
			done = append(done, d)
		}
	}
	if len(done) == 0 {
		return fmt.Errorf("no submissions completed")
	}
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(done)-1))
		return done[i]
	}
	var sum time.Duration
	for _, d := range done {
		sum += d
	}
	mean := sum / time.Duration(len(done))
	perJob := wall / time.Duration(len(done)) // sustained ns per completed job

	serveCounters := map[string]int64{}
	for _, cr := range srv.Metrics().Snapshot().Counters {
		serveCounters[cr.Name] = cr.Value
	}

	emit := func(format string, args ...any) error {
		ev := struct {
			Action string `json:"Action"`
			Output string `json:"Output"`
		}{"output", fmt.Sprintf(format, args...)}
		data, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(w, string(data))
		return err
	}
	rows := []struct {
		name string
		ns   int64
	}{
		{"BenchmarkServeLoadtest/submit_to_done_p50", pct(0.50).Nanoseconds()},
		{"BenchmarkServeLoadtest/submit_to_done_p99", pct(0.99).Nanoseconds()},
		{"BenchmarkServeLoadtest/submit_to_done_mean", mean.Nanoseconds()},
		{"BenchmarkServeLoadtest/sustained_per_job", perJob.Nanoseconds()},
	}
	if rs != nil {
		rows = append(rows, struct {
			name string
			ns   int64
		}{"BenchmarkServeLoadtest/recovery_boot", rs.recovery.Nanoseconds()})
	}
	if fst != nil {
		// Schedule counts ride the ns/op column (benchfmt folds only that
		// unit); the row names carry the real meaning.
		rows = append(rows, []struct {
			name string
			ns   int64
		}{
			{"BenchmarkServeFleet/isolated_total_schedules", fst.isolated},
			{"BenchmarkServeFleet/fleet_total_schedules", fst.fleet},
			{"BenchmarkServeFleet/isolated_wall", fst.isolatedWall.Nanoseconds()},
			{"BenchmarkServeFleet/fleet_wall", fst.fleetWall.Nanoseconds()},
		}...)
	}
	for _, r := range rows {
		if err := emit("%s 1 %d ns/op\n", r.name, r.ns); err != nil {
			return err
		}
	}
	summary := fmt.Sprintf(
		"loadtest: submissions=%d concurrency=%d completed=%d failed=%d throughput=%.1f/s p50=%s p99=%s retries_429=%d resume_hits=%d resume_misses=%d programs=%d",
		n, conc, c.completed.Load(), c.failed.Load(),
		float64(len(done))/wall.Seconds(), pct(0.50), pct(0.99),
		c.rejected429.Load(),
		serveCounters["serve.resume_hits"], serveCounters["serve.resume_misses"],
		len(srv.Programs()),
	)
	if rs != nil {
		summary += fmt.Sprintf(" restart_recovery=%s restart_resumed=%d/%d", rs.recovery, rs.resumed, rs.submitted)
	}
	if err := emit("%s\n", summary); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, summary)
	if fst != nil {
		fsum := fmt.Sprintf(
			"fleet: replicas=%d programs=%d jobs=%d single=%d isolated=%d fleet=%d savings=%.1f%% fetch_hits=%d serve_hits=%d identical=%v",
			fst.replicas, fst.programs, fst.jobs, fst.single, fst.isolated, fst.fleet,
			100*fst.savings, fst.fetchHits, fst.serveHits, fst.identical,
		)
		if err := emit("%s\n", fsum); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, fsum)
	}
	if c.failed.Load() > 0 {
		return fmt.Errorf("%d submissions failed", c.failed.Load())
	}
	if serveCounters["serve.resume_hits"] == 0 {
		return fmt.Errorf("no resume hits — the store is not accumulating state")
	}
	return nil
}
