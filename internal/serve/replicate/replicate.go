// Package replicate is the fleet side of the serve store: an HTTP
// client that exchanges program state blobs between owl-serve replicas
// so N replicas explore like one warm server.
//
// The wire format is deliberately not new: a replica serves exactly the
// bytes a CHECKPOINT file holds (persist.EncodeCheckpoint — magic plus
// one CRC-framed JSON payload), so the same validator guards the disk
// read path, the network read path, and the import. Trust follows the
// PR 9 rehydration rules: a fetched blob is used only if its key
// re-resolves and its module fingerprint matches the locally resolved
// program; anything else is discarded and the job proceeds cold. A
// peer can therefore slow a replica down or fail to help it, but never
// corrupt its analysis — and a submission NEVER fails because a peer
// is down, slow, or serving garbage.
//
// Two flows:
//
//   - Fetch: on a cold Submit miss (no memory state, no durable dir)
//     the store asks each healthy peer for the program's blob before
//     paying cold-start exploration.
//   - Offer: after a checkpoint fold (and on drain) a replica pushes
//     its newest state to every peer — anti-entropy, latest-wins. A
//     peer that already knows everything in the blob answers 409 and
//     the fleet converges.
//
// Peer health is tracked per peer: consecutive transport failures put
// a peer in a cooldown during which it is skipped entirely, so one
// dead peer costs each cold miss at most a few timeouts, not every
// one. Deterministic network faults (net-down, net-slow, net-truncate,
// net-flip) inject through an optional faultinject.Plan keyed by
// operation name and per-(peer, op, key) request sequence.
package replicate

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/conanalysis/owl/internal/faultinject"
	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/serve/persist"
)

// MaxBlobBytes bounds a state blob on the wire in either direction.
// Matches the persist layer's frame bound: anything larger is not a
// state blob.
const MaxBlobBytes = 64 << 20

// Config tunes a Replicator. Zero values select the defaults noted on
// each field.
type Config struct {
	// Peers is the base URLs of the other replicas (e.g.
	// "http://replica-2:8080"). Empty disables replication entirely.
	Peers []string
	// Timeout bounds each individual peer request (default 2s).
	Timeout time.Duration
	// Retries is how many times a transport-failed request is retried
	// against the same peer before moving on (default 1).
	Retries int
	// Backoff is the sleep before each retry (default 50ms).
	Backoff time.Duration
	// CoolDown is how long a peer is skipped after downAfter consecutive
	// failures (default 5s).
	CoolDown time.Duration
	// Client issues the requests (default a fresh http.Client; the
	// in-process fleet tests install handler-backed transports here).
	Client *http.Client
	// Faults, when non-nil, injects deterministic network faults at the
	// replicate.* operation points.
	Faults *faultinject.Plan
	// Metrics receives the serve.replica_* counters (nil-safe).
	Metrics *metrics.Collector
}

// downAfter is the consecutive-failure count that trips a peer into
// cooldown.
const downAfter = 3

func (c Config) withDefaults() Config {
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 1
	}
	if c.Backoff <= 0 {
		c.Backoff = 50 * time.Millisecond
	}
	if c.CoolDown <= 0 {
		c.CoolDown = 5 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

type peer struct {
	url       string
	fails     int       // consecutive transport failures
	downUntil time.Time // skipped until then
}

// Replicator exchanges state blobs with a fixed peer set. Fetch is
// synchronous (it sits on the cold-miss path, outside the store
// mutex); Offer is asynchronous — offers queue latest-wins per key and
// one background goroutine pushes them so a slow peer never blocks a
// job's completion path.
type Replicator struct {
	cfg Config
	mc  *metrics.Collector

	mu       sync.Mutex
	cond     *sync.Cond
	peers    []*peer
	seq      map[string]int    // (peer|op|key) -> next fault-injection sequence
	order    []string          // FIFO of keys with a pending offer
	pending  map[string][]byte // key -> latest offered blob
	inflight bool              // worker mid-push
	closed   bool

	wg sync.WaitGroup
}

// New builds a Replicator and starts its push worker. Returns nil when
// cfg.Peers is empty — a nil *Replicator is valid and inert, so call
// sites thread an optional replicator without guards.
func New(cfg Config) *Replicator {
	if len(cfg.Peers) == 0 {
		return nil
	}
	cfg = cfg.withDefaults()
	r := &Replicator{
		cfg:     cfg,
		mc:      cfg.Metrics,
		seq:     make(map[string]int),
		pending: make(map[string][]byte),
	}
	r.cond = sync.NewCond(&r.mu)
	for _, u := range cfg.Peers {
		r.peers = append(r.peers, &peer{url: u})
	}
	r.mc.Gauge("serve.replica_peers", float64(len(r.peers)))
	r.wg.Add(1)
	go r.worker()
	return r
}

// Enabled reports whether replication is configured.
func (r *Replicator) Enabled() bool { return r != nil }

// netSeq returns the next fault-injection sequence for (peer, op, key).
// Keying by all three keeps fault decisions deterministic even when
// requests for different programs interleave.
func (r *Replicator) netSeq(peerURL, op, key string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := peerURL + "|" + op + "|" + key
	n := r.seq[k]
	r.seq[k] = n + 1
	return n
}

// healthy snapshots the peers currently worth talking to.
func (r *Replicator) healthy() []*peer {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*peer, 0, len(r.peers))
	for _, p := range r.peers {
		if now.Before(p.downUntil) {
			continue
		}
		out = append(out, p)
	}
	return out
}

func (r *Replicator) peerFailed(p *peer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p.fails++
	if p.fails >= downAfter {
		p.downUntil = time.Now().Add(r.cfg.CoolDown)
		p.fails = 0
		r.mc.Count("serve.replica_peer_down", 1)
	}
}

func (r *Replicator) peerOK(p *peer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p.fails = 0
}

// Fetch asks each healthy peer in order for key's state blob and
// returns the first one that validates, or nil — a nil return (peers
// down, no peer has the program, every blob damaged) means "proceed
// cold" and is never an error the caller must handle. The returned
// checkpoint is decoded and CRC-verified but NOT trust-checked: the
// caller still owes the key re-resolution and fingerprint match before
// importing it.
func (r *Replicator) Fetch(ctx context.Context, key string) *persist.Checkpoint {
	if r == nil {
		return nil
	}
	for _, p := range r.healthy() {
		ck, err := r.fetchFrom(ctx, p, key)
		if err != nil {
			r.mc.Count("serve.replica_fetch_errors", 1)
			continue
		}
		if ck != nil {
			return ck
		}
	}
	r.mc.Count("serve.replica_fetch_misses", 1)
	return nil
}

// fetchFrom GETs key's blob from one peer, retrying transport failures.
// (nil, nil) means the peer answered cleanly but has nothing (404).
func (r *Replicator) fetchFrom(ctx context.Context, p *peer, key string) (*persist.Checkpoint, error) {
	url := p.url + "/v1/programs/" + key + "/state"
	var lastErr error
	for attempt := 0; attempt <= r.cfg.Retries; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(r.cfg.Backoff):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		r.mc.Count("serve.replica_fetch_attempts", 1)
		body, status, err := r.do(ctx, p, "replicate.get", key, func(rctx context.Context) (*http.Request, error) {
			req, err := http.NewRequestWithContext(rctx, http.MethodGet, url, nil)
			if err != nil {
				return nil, err
			}
			req.Header.Set("Accept-Encoding", "gzip")
			return req, nil
		})
		if err != nil {
			lastErr = err
			continue // transport failure: retry this peer
		}
		switch {
		case status == http.StatusOK:
			ck, err := persist.DecodeCheckpoint(body)
			if err != nil {
				// Damaged blob (torn proxy, bit rot): the peer answered, so
				// this is not a health failure, but the bytes are unusable.
				r.peerOK(p)
				return nil, err
			}
			if ck.Key != key {
				r.peerOK(p)
				return nil, fmt.Errorf("replicate: peer %s served key %.12s, asked for %.12s", p.url, ck.Key, key)
			}
			r.peerOK(p)
			return &ck, nil
		case status == http.StatusNotFound:
			r.peerOK(p)
			return nil, nil
		default:
			lastErr = fmt.Errorf("replicate: peer %s: status %d", p.url, status)
		}
	}
	r.peerFailed(p)
	return nil, lastErr
}

// do issues one fault-injected request and returns the (fault-injected)
// body bytes and status. Network faults apply in two places: the
// request point (op) can fail the call before it leaves or stall it,
// and the body point (op+".body") can truncate or flip the bytes that
// "arrived".
func (r *Replicator) do(ctx context.Context, p *peer, op, key string, build func(context.Context) (*http.Request, error)) ([]byte, int, error) {
	rctx, cancel := context.WithTimeout(ctx, r.cfg.Timeout)
	defer cancel()
	if f := r.cfg.Faults.Net(op, r.netSeq(p.url, op, key)); f != nil {
		switch f.Kind {
		case faultinject.KindNetDown:
			return nil, 0, f
		case faultinject.KindNetSlow:
			// The stall counts against the request timeout, exactly like
			// a peer that is slow on the wire: a delay longer than
			// cfg.Timeout turns into a transport failure.
			select {
			case <-time.After(time.Duration(f.DelayMS) * time.Millisecond):
			case <-rctx.Done():
				return nil, 0, rctx.Err()
			}
		}
	}
	req, err := build(rctx)
	if err != nil {
		return nil, 0, err
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	reader := io.Reader(resp.Body)
	if resp.Header.Get("Content-Encoding") == "gzip" {
		gz, err := gzip.NewReader(reader)
		if err != nil {
			return nil, 0, err
		}
		defer gz.Close()
		reader = gz
	}
	body, err := io.ReadAll(io.LimitReader(reader, MaxBlobBytes+1))
	if err != nil {
		return nil, 0, err
	}
	if len(body) > MaxBlobBytes {
		return nil, 0, fmt.Errorf("replicate: peer %s: blob exceeds %d bytes", p.url, MaxBlobBytes)
	}
	if f := r.cfg.Faults.Net(op+".body", r.netSeq(p.url, op+".body", key)); f != nil {
		switch f.Kind {
		case faultinject.KindNetTruncate:
			body = body[:len(body)/2]
		case faultinject.KindNetFlip:
			if len(body) > 0 {
				bit := f.Bit % (len(body) * 8)
				if bit < 0 {
					bit += len(body) * 8
				}
				flipped := append([]byte{}, body...)
				flipped[bit/8] ^= 1 << (bit % 8)
				body = flipped
			}
		}
	}
	return body, resp.StatusCode, nil
}

// Offer enqueues key's state blob for anti-entropy push to every peer.
// Latest wins: a newer offer for the same key replaces a queued one
// (the blob is a full snapshot, not a delta, so only the newest
// matters). Never blocks on the network.
func (r *Replicator) Offer(ck persist.Checkpoint) {
	if r == nil {
		return
	}
	blob, err := persist.EncodeCheckpoint(ck)
	if err != nil {
		return
	}
	r.mc.Count("serve.replica_offers", 1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	if _, queued := r.pending[ck.Key]; !queued {
		r.order = append(r.order, ck.Key)
	}
	r.pending[ck.Key] = blob
	r.cond.Broadcast()
}

// worker drains the offer queue, one key at a time.
func (r *Replicator) worker() {
	defer r.wg.Done()
	for {
		r.mu.Lock()
		for len(r.order) == 0 && !r.closed {
			r.cond.Wait()
		}
		if len(r.order) == 0 && r.closed {
			r.mu.Unlock()
			return
		}
		key := r.order[0]
		r.order = r.order[1:]
		blob := r.pending[key]
		delete(r.pending, key)
		r.inflight = true
		r.mu.Unlock()

		r.push(key, blob)

		r.mu.Lock()
		r.inflight = false
		r.cond.Broadcast()
		r.mu.Unlock()
	}
}

// push PUTs one blob to every healthy peer. 409 means the peer already
// knew everything in the blob (stale offer — the fleet has converged
// on this program); other rejections mean the peer refused the blob's
// identity; neither is a transport failure.
func (r *Replicator) push(key string, blob []byte) {
	for _, p := range r.healthy() {
		url := p.url + "/v1/programs/" + key + "/state"
		ok := false
		for attempt := 0; attempt <= r.cfg.Retries; attempt++ {
			if attempt > 0 {
				time.Sleep(r.cfg.Backoff)
			}
			_, status, err := r.do(context.Background(), p, "replicate.put", key, func(rctx context.Context) (*http.Request, error) {
				req, err := http.NewRequestWithContext(rctx, http.MethodPut, url, bytes.NewReader(blob))
				if err != nil {
					return nil, err
				}
				req.Header.Set("Content-Type", "application/octet-stream")
				return req, nil
			})
			if err != nil {
				continue
			}
			switch {
			case status == http.StatusOK || status == http.StatusNoContent:
				r.mc.Count("serve.replica_push_ok", 1)
			case status == http.StatusConflict:
				r.mc.Count("serve.replica_push_stale", 1)
			default:
				r.mc.Count("serve.replica_push_rejected", 1)
			}
			ok = true
			break
		}
		if !ok {
			r.mc.Count("serve.replica_push_errors", 1)
			r.peerFailed(p)
			continue
		}
		r.peerOK(p)
	}
}

// Flush blocks until every queued offer has been pushed (or ctx
// expires) — the drain path, so a shutdown's final anti-entropy sweep
// actually reaches the fleet.
func (r *Replicator) Flush(ctx context.Context) error {
	if r == nil {
		return nil
	}
	for {
		r.mu.Lock()
		idle := len(r.order) == 0 && !r.inflight
		closed := r.closed
		r.mu.Unlock()
		if idle || closed {
			return nil
		}
		select {
		case <-ctx.Done():
			// The queue keeps draining in the background regardless.
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Close stops the push worker after the queue drains. The replicator
// must not be used afterwards.
func (r *Replicator) Close() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
	r.wg.Wait()
}
