package replicate

import (
	"compress/gzip"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/conanalysis/owl/internal/faultinject"
	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/sched"
	"github.com/conanalysis/owl/internal/serve/persist"
)

// testKey is a syntactically valid content-hash key (64 hex chars).
var testKey = strings.Repeat("ab", 32)

func testCheckpoint(key string, explorations int) persist.Checkpoint {
	return persist.Checkpoint{
		Key:  key,
		Name: "t",
		Seq:  uint64(explorations),
		State: sched.StateSnapshot{
			Reports:      []sched.StableReport{{ID: "r1"}},
			Explorations: explorations,
		},
	}
}

func counter(mc *metrics.Collector, name string) int64 {
	for _, c := range mc.Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// blobPeer is an httptest peer that serves one checkpoint blob and
// records the PUTs it receives.
type blobPeer struct {
	t *testing.T

	mu   sync.Mutex
	blob []byte // served on GET for its key (nil = 404 everything)
	key  string
	puts [][]byte
	code int // PUT response status (default 200)
	gzip bool
}

func (p *blobPeer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch r.Method {
	case http.MethodGet:
		if p.blob == nil || !strings.Contains(r.URL.Path, p.key) {
			http.Error(w, "no state", http.StatusNotFound)
			return
		}
		if p.gzip && strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
			w.Header().Set("Content-Encoding", "gzip")
			gz := gzip.NewWriter(w)
			gz.Write(p.blob)
			gz.Close()
			return
		}
		w.Write(p.blob)
	case http.MethodPut:
		body, err := io.ReadAll(r.Body)
		if err != nil {
			p.t.Errorf("peer read PUT body: %v", err)
		}
		p.puts = append(p.puts, body)
		code := p.code
		if code == 0 {
			code = http.StatusOK
		}
		w.WriteHeader(code)
	default:
		http.Error(w, "method", http.StatusMethodNotAllowed)
	}
}

func (p *blobPeer) putCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.puts)
}

func newReplicator(t *testing.T, cfg Config) *Replicator {
	t.Helper()
	r := New(cfg)
	if r == nil {
		t.Fatal("New returned nil for a non-empty peer list")
	}
	t.Cleanup(r.Close)
	return r
}

func TestNilReplicatorIsInert(t *testing.T) {
	r := New(Config{})
	if r != nil {
		t.Fatal("New with no peers should return nil")
	}
	if r.Enabled() {
		t.Fatal("nil replicator reports Enabled")
	}
	if ck := r.Fetch(context.Background(), testKey); ck != nil {
		t.Fatalf("nil replicator fetched %v", ck)
	}
	r.Offer(testCheckpoint(testKey, 1))
	if err := r.Flush(context.Background()); err != nil {
		t.Fatalf("nil Flush: %v", err)
	}
	r.Close()
}

func TestFetchHitMissAndGzip(t *testing.T) {
	for _, gz := range []bool{false, true} {
		ck := testCheckpoint(testKey, 7)
		blob, err := persist.EncodeCheckpoint(ck)
		if err != nil {
			t.Fatal(err)
		}
		peer := &blobPeer{t: t, blob: blob, key: testKey, gzip: gz}
		srv := httptest.NewServer(peer)
		defer srv.Close()
		mc := metrics.New()
		r := newReplicator(t, Config{Peers: []string{srv.URL}, Metrics: mc})

		got := r.Fetch(context.Background(), testKey)
		if got == nil {
			t.Fatalf("gzip=%v: fetch returned nil for a served key", gz)
		}
		if got.Key != testKey || got.State.Explorations != 7 {
			t.Fatalf("gzip=%v: fetched %+v", gz, got)
		}
		if miss := r.Fetch(context.Background(), strings.Repeat("cd", 32)); miss != nil {
			t.Fatalf("gzip=%v: fetch of unknown key returned %+v", gz, miss)
		}
		if n := counter(mc, "serve.replica_fetch_misses"); n != 1 {
			t.Fatalf("gzip=%v: fetch_misses = %d, want 1", gz, n)
		}
		// The 404 answered cleanly; no fetch errors.
		if n := counter(mc, "serve.replica_fetch_errors"); n != 0 {
			t.Fatalf("gzip=%v: fetch_errors = %d, want 0", gz, n)
		}
	}
}

// TestFetchMismatchedKeyRejected: a peer serving bytes for the wrong
// key (a routing bug or a malicious peer) is an error, not a hit.
func TestFetchMismatchedKeyRejected(t *testing.T) {
	other := strings.Repeat("cd", 32)
	blob, err := persist.EncodeCheckpoint(testCheckpoint(other, 3))
	if err != nil {
		t.Fatal(err)
	}
	peer := &blobPeer{t: t, blob: blob, key: testKey} // serves other's blob under testKey's path
	srv := httptest.NewServer(peer)
	defer srv.Close()
	mc := metrics.New()
	r := newReplicator(t, Config{Peers: []string{srv.URL}, Metrics: mc})
	if got := r.Fetch(context.Background(), testKey); got != nil {
		t.Fatalf("mis-keyed blob accepted: %+v", got)
	}
	if n := counter(mc, "serve.replica_fetch_errors"); n != 1 {
		t.Fatalf("fetch_errors = %d, want 1", n)
	}
}

// TestFetchRetriesNetDown: a net-down fault on the first request is
// retried and the second attempt succeeds — deterministic retry-path
// coverage without a flaky network.
func TestFetchRetriesNetDown(t *testing.T) {
	blob, err := persist.EncodeCheckpoint(testCheckpoint(testKey, 2))
	if err != nil {
		t.Fatal(err)
	}
	peer := &blobPeer{t: t, blob: blob, key: testKey}
	srv := httptest.NewServer(peer)
	defer srv.Close()
	plan := &faultinject.Plan{Rules: []faultinject.Rule{
		{Stage: "replicate.get", Run: 0, Kind: faultinject.KindNetDown},
	}}
	mc := metrics.New()
	r := newReplicator(t, Config{
		Peers:   []string{srv.URL},
		Backoff: time.Millisecond,
		Faults:  plan,
		Metrics: mc,
	})
	if got := r.Fetch(context.Background(), testKey); got == nil {
		t.Fatal("fetch failed despite a healthy retry")
	}
	if n := counter(mc, "serve.replica_fetch_attempts"); n != 2 {
		t.Fatalf("fetch_attempts = %d, want 2 (net-down then success)", n)
	}
}

// TestFetchDamagedBodyDiscarded: truncated and bit-flipped blobs fail
// the CRC/frame validation and are discarded — never returned.
func TestFetchDamagedBodyDiscarded(t *testing.T) {
	for _, kind := range []faultinject.Kind{faultinject.KindNetTruncate, faultinject.KindNetFlip} {
		blob, err := persist.EncodeCheckpoint(testCheckpoint(testKey, 5))
		if err != nil {
			t.Fatal(err)
		}
		peer := &blobPeer{t: t, blob: blob, key: testKey}
		srv := httptest.NewServer(peer)
		defer srv.Close()
		plan := &faultinject.Plan{Rules: []faultinject.Rule{
			// Run is the per-(peer,op,key) request sequence: damage
			// exactly the first response body, leave the retry clean.
			{Stage: "replicate.get.body", Run: 0, Kind: kind, Bit: 77},
		}}
		mc := metrics.New()
		r := newReplicator(t, Config{Peers: []string{srv.URL}, Retries: -1, Faults: plan, Metrics: mc})
		if got := r.Fetch(context.Background(), testKey); got != nil {
			t.Fatalf("%s: damaged blob accepted: %+v", kind, got)
		}
		if n := counter(mc, "serve.replica_fetch_errors"); n != 1 {
			t.Fatalf("%s: fetch_errors = %d, want 1", kind, n)
		}
		// Only request sequence 0 is damaged: the next fetch is clean.
		if got := r.Fetch(context.Background(), testKey); got == nil {
			t.Fatalf("%s: clean refetch failed", kind)
		}
	}
}

// TestNetSlowHonorsTimeout: a net-slow fault longer than the request
// context stalls the request into a context error instead of hanging.
func TestNetSlowHonorsTimeout(t *testing.T) {
	plan := &faultinject.Plan{Rules: []faultinject.Rule{
		{Stage: "replicate.get", Run: -1, Kind: faultinject.KindNetSlow, DelayMS: 60000},
	}}
	mc := metrics.New()
	r := newReplicator(t, Config{Peers: []string{"http://127.0.0.1:1"}, Retries: -1, Faults: plan, Metrics: mc})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if got := r.Fetch(ctx, testKey); got != nil {
		t.Fatalf("stalled fetch returned %+v", got)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("net-slow ignored the context")
	}
}

// TestPeerCooldown: downAfter consecutive transport failures put a peer
// in cooldown, during which Fetch skips it entirely.
func TestPeerCooldown(t *testing.T) {
	mc := metrics.New()
	r := newReplicator(t, Config{
		Peers:    []string{"http://127.0.0.1:1"}, // nothing listens here
		Retries:  -1,
		Timeout:  200 * time.Millisecond,
		CoolDown: time.Hour,
		Metrics:  mc,
	})
	for i := 0; i < downAfter; i++ {
		if got := r.Fetch(context.Background(), testKey); got != nil {
			t.Fatalf("fetch %d returned %+v", i, got)
		}
	}
	if n := counter(mc, "serve.replica_peer_down"); n != 1 {
		t.Fatalf("peer_down = %d, want 1", n)
	}
	before := counter(mc, "serve.replica_fetch_attempts")
	if got := r.Fetch(context.Background(), testKey); got != nil {
		t.Fatalf("fetch from down peer returned %+v", got)
	}
	if after := counter(mc, "serve.replica_fetch_attempts"); after != before {
		t.Fatalf("down peer was contacted: attempts %d -> %d", before, after)
	}
}

func TestOfferPushFlushAndStale(t *testing.T) {
	peerA := &blobPeer{t: t, key: testKey}
	peerB := &blobPeer{t: t, key: testKey, code: http.StatusConflict}
	srvA, srvB := httptest.NewServer(peerA), httptest.NewServer(peerB)
	defer srvA.Close()
	defer srvB.Close()
	mc := metrics.New()
	r := newReplicator(t, Config{Peers: []string{srvA.URL, srvB.URL}, Metrics: mc})

	ck := testCheckpoint(testKey, 9)
	want, err := persist.EncodeCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	r.Offer(ck)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if peerA.putCount() != 1 || peerB.putCount() != 1 {
		t.Fatalf("puts = %d/%d, want 1/1", peerA.putCount(), peerB.putCount())
	}
	peerA.mu.Lock()
	got := peerA.puts[0]
	peerA.mu.Unlock()
	if string(got) != string(want) {
		t.Fatal("pushed blob differs from EncodeCheckpoint bytes")
	}
	if n := counter(mc, "serve.replica_push_ok"); n != 1 {
		t.Fatalf("push_ok = %d, want 1", n)
	}
	// Peer B answered 409: a stale offer, not an error and not a health
	// failure.
	if n := counter(mc, "serve.replica_push_stale"); n != 1 {
		t.Fatalf("push_stale = %d, want 1", n)
	}
	if n := counter(mc, "serve.replica_push_errors"); n != 0 {
		t.Fatalf("push_errors = %d, want 0", n)
	}
}

// TestOfferLatestWins: offers queued behind a busy worker collapse to
// the newest blob per key.
func TestOfferLatestWins(t *testing.T) {
	release := make(chan struct{})
	var mu sync.Mutex
	var bodies [][]byte
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, b)
		mu.Unlock()
	}))
	defer slow.Close()
	mc := metrics.New()
	r := newReplicator(t, Config{Peers: []string{slow.URL}, Retries: -1, Timeout: 10 * time.Second, Metrics: mc})

	otherKey := strings.Repeat("cd", 32)
	r.Offer(testCheckpoint(otherKey, 1)) // worker picks this up and blocks in the PUT
	// Wait until the worker is actually inside the push so the next
	// offers queue behind it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		r.mu.Lock()
		busy := r.inflight
		r.mu.Unlock()
		if busy || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	r.Offer(testCheckpoint(testKey, 1))
	r.Offer(testCheckpoint(testKey, 2)) // replaces the queued offer
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	mu.Lock()
	n := len(bodies)
	last := bodies[n-1]
	mu.Unlock()
	if n != 2 {
		t.Fatalf("peer saw %d PUTs, want 2 (latest-wins collapsed the middle offer)", n)
	}
	ck, err := persist.DecodeCheckpoint(last)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Key != testKey || ck.State.Explorations != 2 {
		t.Fatalf("last push = %+v, want the newest offer for %s", ck, testKey[:8])
	}
}

// TestPushErrorTripsHealth: a push to a dead peer counts an error and
// feeds the same health accounting as fetch failures.
func TestPushErrorTripsHealth(t *testing.T) {
	mc := metrics.New()
	r := newReplicator(t, Config{
		Peers:   []string{"http://127.0.0.1:1"},
		Retries: -1,
		Timeout: 200 * time.Millisecond,
		Metrics: mc,
	})
	for i := 0; i < downAfter; i++ {
		r.Offer(testCheckpoint(testKey, i+1))
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := r.Flush(ctx); err != nil {
			cancel()
			t.Fatalf("Flush: %v", err)
		}
		cancel()
	}
	if n := counter(mc, "serve.replica_push_errors"); n != int64(downAfter) {
		t.Fatalf("push_errors = %d, want %d", n, downAfter)
	}
	if n := counter(mc, "serve.replica_peer_down"); n != 1 {
		t.Fatalf("peer_down = %d, want 1", n)
	}
}

func TestCloseDrainsQueue(t *testing.T) {
	peer := &blobPeer{t: t, key: testKey}
	srv := httptest.NewServer(peer)
	defer srv.Close()
	r := New(Config{Peers: []string{srv.URL}, Metrics: metrics.New()})
	r.Offer(testCheckpoint(testKey, 1))
	r.Close() // must push the queued offer before stopping
	if peer.putCount() != 1 {
		t.Fatalf("Close dropped the queued offer: puts = %d", peer.putCount())
	}
}
