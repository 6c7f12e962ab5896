package serve

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/conanalysis/owl/internal/faultinject"
	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/serve/persist"
	"github.com/conanalysis/owl/internal/serve/replicate"
)

// handlerTransport routes peer HTTP requests to in-process handlers by
// host name — a fleet of servers in one test process, no sockets.
type handlerTransport struct {
	mu    sync.Mutex
	hosts map[string]http.Handler
}

func newHandlerTransport() *handlerTransport {
	return &handlerTransport{hosts: make(map[string]http.Handler)}
}

func (ht *handlerTransport) register(host string, h http.Handler) {
	ht.mu.Lock()
	defer ht.mu.Unlock()
	ht.hosts[host] = h
}

func (ht *handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ht.mu.Lock()
	h := ht.hosts[req.URL.Host]
	ht.mu.Unlock()
	if h == nil {
		return nil, fmt.Errorf("no route to host %q", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// newFleet builds n servers that are mutual peers over an in-process
// transport. mkCfg customizes each replica's config (peer fields are
// overwritten).
func newFleet(t *testing.T, n int, mkCfg func(i int) Config) []*Server {
	t.Helper()
	ht := newHandlerTransport()
	client := &http.Client{Transport: ht}
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://replica-%d", i)
	}
	servers := make([]*Server, n)
	for i := 0; i < n; i++ {
		cfg := mkCfg(i)
		if cfg.Metrics == nil {
			cfg.Metrics = metrics.New()
		}
		for j := range urls {
			if j != i {
				cfg.Peers = append(cfg.Peers, urls[j])
			}
		}
		cfg.PeerClient = client
		cfg.PeerBackoff = time.Millisecond
		servers[i] = mustNew(t, cfg)
		ht.register(fmt.Sprintf("replica-%d", i), servers[i].Handler())
	}
	t.Cleanup(func() {
		for _, s := range servers {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			s.Shutdown(ctx)
			cancel()
		}
	})
	return servers
}

func keyOf(t *testing.T, spec Spec) string {
	t.Helper()
	_, _, key, err := resolve(spec)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	return key
}

func doReq(h http.Handler, method, path string, hdr map[string]string, body []byte) *httptest.ResponseRecorder {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestStateGetLiveProgram pins the GET side of the exchange: a warm
// program serves a decodable checkpoint blob with a seq ETag,
// If-None-Match returns 304, HEAD returns headers only, gzip is
// negotiated explicitly, and unknown or malformed keys are clean 404s.
func TestStateGetLiveProgram(t *testing.T) {
	mc := metrics.New()
	s := mustNew(t, Config{Metrics: mc})
	defer s.Shutdown(context.Background())
	h := s.Handler()
	spec := libsafeSpec("t")
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	key := keyOf(t, spec)
	path := "/v1/programs/" + key + "/state"

	rec := doReq(h, http.MethodGet, path, nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET = %d: %s", rec.Code, rec.Body.String())
	}
	etag := rec.Header().Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on state response")
	}
	ck, err := persist.DecodeCheckpoint(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("served blob does not decode: %v", err)
	}
	if ck.Key != key || ck.State.Explorations == 0 {
		t.Fatalf("served checkpoint = key %.12s, %d explorations", ck.Key, ck.State.Explorations)
	}

	if rec := doReq(h, http.MethodGet, path, map[string]string{"If-None-Match": etag}, nil); rec.Code != http.StatusNotModified {
		t.Fatalf("If-None-Match = %d, want 304", rec.Code)
	}
	rec = doReq(h, http.MethodHead, path, nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("HEAD = %d", rec.Code)
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("HEAD wrote %d body bytes", rec.Body.Len())
	}
	if rec.Header().Get("X-Owl-State-Seq") == "" {
		t.Fatal("HEAD lost the seq header")
	}

	rec = doReq(h, http.MethodGet, path, map[string]string{"Accept-Encoding": "gzip"}, nil)
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Encoding") != "gzip" {
		t.Fatalf("gzip GET = %d, encoding %q", rec.Code, rec.Header().Get("Content-Encoding"))
	}
	gz, err := gzip.NewReader(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := persist.DecodeCheckpoint(plain); err != nil {
		t.Fatalf("gunzipped blob does not decode: %v", err)
	}

	unknown := strings.Repeat("ee", 32)
	if rec := doReq(h, http.MethodGet, "/v1/programs/"+unknown+"/state", nil, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown key GET = %d, want 404", rec.Code)
	}
	if n := counterOf(mc, "serve.replica_serve_misses"); n != 1 {
		t.Fatalf("serve_misses = %d, want 1", n)
	}
	// A path-traversal-shaped key must be refused before it can touch
	// the filesystem.
	if rec := doReq(h, http.MethodGet, "/v1/programs/notakey/state", nil, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("malformed key GET = %d, want 404", rec.Code)
	}
}

// TestStateGetEvictedProgram: an evicted-but-durable program serves its
// CHECKPOINT file bytes without being faulted back into memory.
func TestStateGetEvictedProgram(t *testing.T) {
	mc := metrics.New()
	s := mustNew(t, Config{Metrics: mc, StateDir: t.TempDir(), MaxPrograms: 1, CheckpointEvery: 1})
	defer s.Shutdown(context.Background())
	specA := libsafeSpec("t")
	specB := Spec{Tenant: "t", Workload: "memcached", Options: SpecOptions{Explore: "coverage", Budget: 8, Seed: 7}}
	waitJob(t, mustSubmit(t, s, specA))
	waitJob(t, mustSubmit(t, s, specB)) // evicts A (MaxPrograms=1)
	keyA := keyOf(t, specA)
	if s.store.pin(keyA) != nil {
		t.Fatal("program A still in memory; eviction did not happen")
	}
	rec := doReq(s.Handler(), http.MethodGet, "/v1/programs/"+keyA+"/state", nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET evicted = %d: %s", rec.Code, rec.Body.String())
	}
	ck, err := persist.DecodeCheckpoint(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if ck.Key != keyA || ck.State.Explorations == 0 {
		t.Fatalf("evicted blob = key %.12s, %d explorations", ck.Key, ck.State.Explorations)
	}
	if s.store.pin(keyA) != nil {
		t.Fatal("serving the blob faulted the program back into memory")
	}
}

// warmBlob runs spec to completion on a throwaway server and returns
// the state blob its GET endpoint serves — a valid, warm checkpoint to
// feed offer tests.
func warmBlob(t *testing.T, spec Spec) []byte {
	t.Helper()
	s := mustNew(t, Config{})
	defer s.Shutdown(context.Background())
	waitJob(t, mustSubmit(t, s, spec))
	rec := doReq(s.Handler(), http.MethodGet, "/v1/programs/"+keyOf(t, spec)+"/state", nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("warm blob GET = %d", rec.Code)
	}
	return rec.Body.Bytes()
}

// TestStateOfferPaths pins the PUT protocol: import (200), stale (409),
// and every refusal path — garbage, wrong key, tampered fingerprint,
// truncated and oversized bodies.
func TestStateOfferPaths(t *testing.T) {
	spec := libsafeSpec("t")
	key := keyOf(t, spec)
	blob := warmBlob(t, spec)
	path := "/v1/programs/" + key + "/state"

	mc := metrics.New()
	s := mustNew(t, Config{Metrics: mc})
	defer s.Shutdown(context.Background())
	h := s.Handler()

	// First offer: the program is unknown here — imported wholesale.
	if rec := doReq(h, http.MethodPut, path, nil, blob); rec.Code != http.StatusOK {
		t.Fatalf("first PUT = %d: %s", rec.Code, rec.Body.String())
	}
	if n := counterOf(mc, "serve.replica_merges"); n != 1 {
		t.Fatalf("replica_merges = %d, want 1", n)
	}
	if n := counterOf(mc, "serve.store_programs"); n != 1 {
		t.Fatalf("store_programs = %d, want 1", n)
	}
	// The exact same blob again: nothing new — 409, the pusher's
	// convergence signal.
	if rec := doReq(h, http.MethodPut, path, nil, blob); rec.Code != http.StatusConflict {
		t.Fatalf("stale PUT = %d, want 409", rec.Code)
	}
	// The imported program must behave like a warm local one.
	st := waitJob(t, mustSubmit(t, s, spec))
	if !st.Resume {
		t.Fatal("submission after import did not resume warm")
	}
	bomb := gzipZeros(t, 4*replicate.MaxBlobBytes>>20)

	for name, tc := range map[string]struct {
		path string
		hdr  map[string]string
		body []byte
		want int
	}{
		"garbage":                 {path, nil, []byte("OWLCKPT1 not a frame"), http.StatusBadRequest},
		"truncated":               {path, nil, blob[:len(blob)/2], http.StatusBadRequest},
		"malformed key":           {"/v1/programs/oops/state", nil, blob, http.StatusBadRequest},
		"wrong key":               {"/v1/programs/" + strings.Repeat("ee", 32) + "/state", nil, blob, http.StatusBadRequest},
		"oversized":               {path, nil, make([]byte, replicate.MaxBlobBytes+2), http.StatusRequestEntityTooLarge},
		"bad gzip":                {path, map[string]string{"Content-Encoding": "gzip"}, blob, http.StatusBadRequest},
		"inflates past the bound": {path, map[string]string{"Content-Encoding": "gzip"}, bomb, http.StatusRequestEntityTooLarge},
	} {
		if rec := doReq(h, http.MethodPut, tc.path, tc.hdr, tc.body); rec.Code != tc.want {
			t.Errorf("%s PUT = %d, want %d", name, rec.Code, tc.want)
		}
	}

	// Tampered module fingerprint: identity check refuses with 422.
	ck, err := persist.DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	ck.ModuleFP = strings.Repeat("00", 32)
	tampered, err := persist.EncodeCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	discardedBefore := counterOf(mc, "serve.replica_discarded")
	if rec := doReq(h, http.MethodPut, path, nil, tampered); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("tampered-fp PUT = %d, want 422", rec.Code)
	}
	if n := counterOf(mc, "serve.replica_discarded"); n != discardedBefore+1 {
		t.Fatalf("replica_discarded = %d, want %d", n, discardedBefore+1)
	}
}

// gzipZeros returns a gzip stream that inflates to n MiB of zeros: n
// concatenated one-MiB members, which gzip.Reader reads as one stream.
func gzipZeros(t *testing.T, n int) []byte {
	t.Helper()
	var member bytes.Buffer
	gz := gzip.NewWriter(&member)
	if _, err := gz.Write(make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return bytes.Repeat(member.Bytes(), n)
}

// fleetMix is the repeat-heavy program set TestFleetWarmStart routes
// across replicas. It leans on programs whose exploration saturates
// (libsafe at both noise levels and two small inline modules resume to a
// fixed dry-round floor whatever the budget), with two larger workloads
// for diversity. apache and ssdb are absent: their high-budget summaries
// are not stable across resumed runs, and the gate demands byte-identity.
func fleetMix() []Spec {
	cov := func(workload, noise string, budget int) Spec {
		return Spec{
			Workload: workload,
			Noise:    noise,
			Options:  SpecOptions{Explore: "coverage", Budget: budget, Seed: 7},
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
	return []Spec{
		cov("libsafe", "", 48),
		cov("libsafe", "full", 48),
		{Program: inlineA, Options: SpecOptions{Explore: "coverage", Budget: 48, Seed: 7}},
		{Program: inlineB, Options: SpecOptions{Explore: "coverage", Budget: 48, Seed: 7}},
		cov("memcached", "", 24),
		cov("mysql", "", 24),
	}
}

// fleetSlot is one submission of the fleet schedule: which program and
// which replica receives it.
type fleetSlot struct{ spec, replica int }

// fleetSchedule routes every program to every replica exactly once, in a
// seeded order, so the replica that pays a program's cold start varies
// across programs but is the same in the isolated and peered passes.
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

// fleetPass is one topology's run of the fleet schedule.
type fleetPass struct {
	schedules int64
	summaries []string
	fetchHits int64
}

// runFleetPass drives the schedule through servers one job at a time and
// sums executed schedules and peer fetch hits. The counters are read
// before any shutdown, whose anti-entropy sweep the pass never relied on.
func runFleetPass(t *testing.T, servers []*Server, specs []Spec, slots []fleetSlot) fleetPass {
	t.Helper()
	var p fleetPass
	for _, sl := range slots {
		st := waitJob(t, mustSubmit(t, servers[sl.replica], specs[sl.spec]))
		p.schedules += st.Result.ExecutedSchedules
		p.summaries = append(p.summaries, normalizeTiming(st.Result.SummaryText))
	}
	for _, s := range servers {
		p.fetchHits += counterOf(s.Metrics(), "serve.replica_fetch_hits")
	}
	return p
}

// TestFleetWarmStart is the fleet warm-start gate: the same seeded
// schedule of six programs over three replicas runs on one server (the
// byte-identity reference), on three isolated replicas and on three
// peered ones. Peering must execute at least 30% fewer schedules than
// isolation (measured 516 vs 828, 37.7%), warm at least one cold start
// by a peer fetch, and leave every job's summary byte-identical to the
// single server's.
func TestFleetWarmStart(t *testing.T) {
	const replicas = 3
	// Every replica persists: anti-entropy pushes then ride only the
	// checkpoint-fold and drain cadence, so warmth inside a pass arrives
	// through the cold-miss fetch this gate is about.
	durable := func(int) Config { return Config{Shards: 2, StateDir: t.TempDir()} }
	standalone := func(n int) []*Server {
		servers := make([]*Server, n)
		for i := range servers {
			s := mustNew(t, durable(i))
			t.Cleanup(func() { s.Shutdown(context.Background()) })
			servers[i] = s
		}
		return servers
	}
	specs := fleetMix()
	slots := fleetSchedule(len(specs), replicas)
	singleSlots := make([]fleetSlot, len(slots))
	for i, sl := range slots {
		singleSlots[i] = fleetSlot{sl.spec, 0}
	}

	single := runFleetPass(t, standalone(1), specs, singleSlots)
	isolated := runFleetPass(t, standalone(replicas), specs, slots)
	peered := runFleetPass(t, newFleet(t, replicas, durable), specs, slots)

	t.Logf("schedules: single %d, isolated %d, peered %d; peer fetch hits %d",
		single.schedules, isolated.schedules, peered.schedules, peered.fetchHits)
	if peered.schedules >= isolated.schedules {
		t.Fatalf("peered replicas executed %d schedules, isolated %d — replication saved nothing",
			peered.schedules, isolated.schedules)
	}
	if savings := 1 - float64(peered.schedules)/float64(isolated.schedules); savings < 0.30 {
		t.Errorf("savings %.1f%% below the 30%% warm-start target (peered %d vs isolated %d)",
			100*savings, peered.schedules, isolated.schedules)
	}
	if peered.fetchHits == 0 {
		t.Error("no replica cold start was warmed by a peer fetch")
	}
	for i, sl := range slots {
		if peered.summaries[i] != single.summaries[i] {
			t.Errorf("job %d (program %d on replica %d): summary diverged from the single server:\n--- peered\n%s\n--- single\n%s",
				i, sl.spec, sl.replica, peered.summaries[i], single.summaries[i])
		}
	}
}

// TestPeerFetchWarmsColdReplica: replica B's first sight of a program
// replica A already explored fetches A's state and resumes warm —
// strictly fewer schedules, exactly one fetch, byte-identical analysis.
func TestPeerFetchWarmsColdReplica(t *testing.T) {
	// Asymmetric on purpose: A has no peers, so its state can reach B
	// only through B's cold-miss fetch — otherwise A's anti-entropy
	// push could race the fetch and make fetch_hits nondeterministic.
	ht := newHandlerTransport()
	a := mustNew(t, Config{Metrics: metrics.New()})
	ht.register("replica-a", a.Handler())
	b := mustNew(t, Config{
		Metrics:     metrics.New(),
		Peers:       []string{"http://replica-a"},
		PeerClient:  &http.Client{Transport: ht},
		PeerBackoff: time.Millisecond,
	})
	defer a.Shutdown(context.Background())
	defer b.Shutdown(context.Background())
	spec := libsafeSpec("t")

	stA := waitJob(t, mustSubmit(t, a, spec))
	stB := waitJob(t, mustSubmit(t, b, spec))
	if !stB.Resume {
		t.Fatal("replica B did not resume from A's state")
	}
	if stB.Result.ExecutedSchedules >= stA.Result.ExecutedSchedules {
		t.Fatalf("B executed %d schedules, A %d — warm start saved nothing",
			stB.Result.ExecutedSchedules, stA.Result.ExecutedSchedules)
	}
	if n := counterOf(b.Metrics(), "serve.replica_fetch_hits"); n != 1 {
		t.Fatalf("B replica_fetch_hits = %d, want 1", n)
	}
	if n := counterOf(a.Metrics(), "serve.replica_serve_hits"); n == 0 {
		t.Fatal("A served no state")
	}
	// Warm start must not change what the analysis reports.
	if normalizeTiming(stB.Result.SummaryText) != normalizeTiming(stA.Result.SummaryText) {
		t.Fatalf("summaries diverged:\nA: %s\nB: %s", stA.Result.SummaryText, stB.Result.SummaryText)
	}
}

// TestAntiEntropyPush: a replica that finishes a job pushes its state
// out; the peer absorbs it without ever being asked.
func TestAntiEntropyPush(t *testing.T) {
	fleet := newFleet(t, 2, func(i int) Config { return Config{} })
	a, b := fleet[0], fleet[1]
	spec := libsafeSpec("t")
	waitJob(t, mustSubmit(t, a, spec))

	// The offer rides an async queue; wait for B to absorb it.
	deadline := time.Now().Add(30 * time.Second)
	for counterOf(b.Metrics(), "serve.replica_merges") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("peer never absorbed the anti-entropy push")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// B now resumes warm with zero fetches: the state was pushed, not
	// pulled.
	st := waitJob(t, mustSubmit(t, b, spec))
	if !st.Resume {
		t.Fatal("B did not resume from the pushed state")
	}
	if n := counterOf(b.Metrics(), "serve.replica_fetch_hits"); n != 0 {
		t.Fatalf("B fetched %d times; push should have made fetching unnecessary", n)
	}
}

// TestPeerFaultMatrix is the acceptance gate: a submission NEVER fails
// because a peer is down, slow, serves truncated/corrupt bytes, or
// serves a stale blob. Each fault scenario runs a full submission on a
// replica whose only peers misbehave, and the job must complete.
func TestPeerFaultMatrix(t *testing.T) {
	spec := libsafeSpec("t")
	key := keyOf(t, spec)
	blob := warmBlob(t, spec)

	// A peer handler that serves the warm blob verbatim; the fault plan
	// on the client side damages what "arrives".
	servePeer := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.Contains(r.URL.Path, key) {
			w.Write(blob)
			return
		}
		http.Error(w, "no", http.StatusNotFound)
	})

	for name, tc := range map[string]struct {
		rules    []faultinject.Rule
		peer     http.Handler
		wantWarm bool
	}{
		"peer down": {
			rules: []faultinject.Rule{{Stage: "replicate.get", Run: -1, Kind: faultinject.KindNetDown}},
			peer:  servePeer,
		},
		"peer slow": {
			// Slower than the peer timeout on every attempt: the fetch
			// must give up and the job proceed cold.
			rules: []faultinject.Rule{{Stage: "replicate.get", Run: -1, Kind: faultinject.KindNetSlow, DelayMS: 250}},
			peer:  servePeer,
		},
		"truncated blob": {
			rules: []faultinject.Rule{{Stage: "replicate.get.body", Run: -1, Kind: faultinject.KindNetTruncate}},
			peer:  servePeer,
		},
		"corrupt blob": {
			rules: []faultinject.Rule{{Stage: "replicate.get.body", Run: -1, Kind: faultinject.KindNetFlip, Bit: 1001}},
			peer:  servePeer,
		},
		"clean peer": { // control: with no faults the same setup resumes warm
			peer:     servePeer,
			wantWarm: true,
		},
	} {
		t.Run(name, func(t *testing.T) {
			ht := newHandlerTransport()
			ht.register("peer", tc.peer)
			mc := metrics.New()
			s := mustNew(t, Config{
				Metrics:     mc,
				Peers:       []string{"http://peer"},
				PeerClient:  &http.Client{Transport: ht},
				PeerTimeout: 100 * time.Millisecond,
				PeerBackoff: time.Millisecond,
				Faults:      &faultinject.Plan{Rules: tc.rules},
			})
			defer s.Shutdown(context.Background())
			st := waitJob(t, mustSubmit(t, s, spec)) // waitJob fails the test if the job failed
			if st.Resume != tc.wantWarm {
				t.Fatalf("resume = %v, want %v", st.Resume, tc.wantWarm)
			}
			if tc.wantWarm {
				if n := counterOf(mc, "serve.replica_fetch_hits"); n != 1 {
					t.Fatalf("fetch_hits = %d, want 1", n)
				}
			}
		})
	}
}

// TestStaleSeqOffer: a peer pushing an older view of a program the
// local replica has already surpassed gets 409, and local state is
// untouched.
func TestStaleSeqOffer(t *testing.T) {
	spec := libsafeSpec("t")
	key := keyOf(t, spec)
	stale := warmBlob(t, spec) // one full submission's worth of state

	s := mustNew(t, Config{})
	defer s.Shutdown(context.Background())
	// Locally the program has run twice — a strict superset of the
	// stale blob (same spec, same seed: the second run only adds).
	waitJob(t, mustSubmit(t, s, spec))
	waitJob(t, mustSubmit(t, s, spec))
	before := s.store.pin(key)
	if before == nil {
		t.Fatal("program not live")
	}
	expl := before.state.Explorations()
	s.store.release(before)

	rec := doReq(s.Handler(), http.MethodPut, "/v1/programs/"+key+"/state", nil, stale)
	if rec.Code != http.StatusConflict {
		t.Fatalf("stale offer = %d, want 409: %s", rec.Code, rec.Body.String())
	}
	after := s.store.pin(key)
	defer s.store.release(after)
	if after.state.Explorations() != expl {
		t.Fatalf("stale offer changed explorations %d -> %d", expl, after.state.Explorations())
	}
}

// TestConcurrentFetchVsEvict races the state-serving GET against LRU
// eviction and rehydration under -race: the pin must keep the blob
// consistent and the server must never 5xx.
func TestConcurrentFetchVsEvict(t *testing.T) {
	s := mustNew(t, Config{StateDir: t.TempDir(), MaxPrograms: 1, CheckpointEvery: 1})
	defer s.Shutdown(context.Background())
	h := s.Handler()
	specA := libsafeSpec("t")
	specB := Spec{Tenant: "t", Workload: "memcached", Options: SpecOptions{Explore: "coverage", Budget: 8, Seed: 7}}
	waitJob(t, mustSubmit(t, s, specA))
	keyA := keyOf(t, specA)
	path := "/v1/programs/" + keyA + "/state"

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := doReq(h, http.MethodGet, path, nil, nil)
				if rec.Code >= 500 {
					t.Errorf("state GET = %d", rec.Code)
					return
				}
				if rec.Code == http.StatusOK {
					if _, err := persist.DecodeCheckpoint(rec.Body.Bytes()); err != nil {
						t.Errorf("served blob does not decode: %v", err)
						return
					}
				}
			}
		}()
	}
	// Alternate submissions so A and B keep evicting each other
	// (MaxPrograms=1) while the readers hammer A's state endpoint.
	for i := 0; i < 4; i++ {
		waitJob(t, mustSubmit(t, s, specB))
		waitJob(t, mustSubmit(t, s, specA))
	}
	close(stop)
	wg.Wait()
}

// TestJobsAndMetricsMethods pins the method/status surface of the job
// and metrics endpoints: GET patterns answer HEAD, wrong methods are
// 405 (with Allow), and conditional GETs on always-fresh resources are
// plain 200s.
func TestJobsAndMetricsMethods(t *testing.T) {
	s := mustNew(t, Config{})
	defer s.Shutdown(context.Background())
	h := s.Handler()
	j := mustSubmit(t, s, libsafeSpec("t"))
	waitJob(t, j)
	jobPath := "/v1/jobs/" + j.Status().ID

	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{http.MethodHead, jobPath, http.StatusOK},
		{http.MethodHead, "/v1/jobs", http.StatusOK},
		{http.MethodHead, "/metrics", http.StatusOK},
		{http.MethodHead, "/v1/programs", http.StatusOK},
		{http.MethodDelete, jobPath, http.StatusMethodNotAllowed},
		{http.MethodPost, "/metrics", http.StatusMethodNotAllowed},
		{http.MethodPut, "/v1/jobs", http.StatusMethodNotAllowed},
		{http.MethodPost, jobPath, http.StatusMethodNotAllowed},
		{http.MethodDelete, "/v1/programs/" + strings.Repeat("ab", 32) + "/state", http.StatusMethodNotAllowed},
		{http.MethodHead, "/v1/jobs/job-999", http.StatusNotFound},
	} {
		rec := doReq(h, tc.method, tc.path, nil, nil)
		if rec.Code != tc.want {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, rec.Code, tc.want)
		}
		if tc.want == http.StatusMethodNotAllowed && rec.Header().Get("Allow") == "" {
			t.Errorf("%s %s: 405 without Allow header", tc.method, tc.path)
		}
	}
	// Job statuses are not cacheable; conditional GETs are ignored.
	rec := doReq(h, http.MethodGet, jobPath, map[string]string{"If-None-Match": `"x"`}, nil)
	if rec.Code != http.StatusOK {
		t.Errorf("conditional GET %s = %d, want 200", jobPath, rec.Code)
	}
}
