// Fleet warm-start: the server side of replica state exchange plus the
// store hooks that fold peer knowledge in. The wire format is exactly
// the CHECKPOINT file format (persist.EncodeCheckpoint), so one
// validator guards the disk path and the network path; the trust rules
// are exactly rehydration's refuse-to-guess: a blob is used only if its
// source re-resolves to the same key and the resolved module's
// fingerprint matches, and a refused blob costs warmth, never a job.
//
// Endpoints (wired in Handler):
//
//	GET /v1/programs/{key}/state  the program's state blob. Live programs
//	                              serve a freshly composed checkpoint;
//	                              evicted-but-durable programs serve the
//	                              CHECKPOINT file bytes. ETag is the blob's
//	                              sequence number; If-None-Match returns
//	                              304, HEAD returns headers only, and
//	                              Accept-Encoding: gzip compresses.
//	PUT /v1/programs/{key}/state  an anti-entropy offer from a peer. The
//	                              blob is decoded, identity-verified, and
//	                              merged into live state (or imported if
//	                              the program is unknown here). 409 means
//	                              the offer contained nothing new — the
//	                              pusher's signal that the fleet has
//	                              converged on this program.
package serve

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"github.com/conanalysis/owl/internal/serve/persist"
	"github.com/conanalysis/owl/internal/serve/replicate"
)

// validStateKey reports whether key looks like a content-hash store key
// (64 lowercase hex chars). The state endpoints refuse anything else up
// front — the key becomes a directory name in the persist store, and a
// crafted path segment must never escape it.
func validStateKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// stateBlob assembles the bytes GET serves for key: a live program
// composes a fresh checkpoint (pinned so eviction cannot race the
// read), an evicted program serves its durable CHECKPOINT file
// verbatim. ok is false when this replica has nothing for the key.
func (s *Server) stateBlob(key string) (blob []byte, seq uint64, ok bool) {
	if ps := s.store.pin(key); ps != nil {
		defer s.store.release(ps)
		if !ps.state.Warm() {
			return nil, 0, false
		}
		ps.pmu.Lock()
		ck := composeCheckpoint(ps)
		ps.pmu.Unlock()
		blob, err := persist.EncodeCheckpoint(ck)
		if err != nil {
			return nil, 0, false
		}
		return blob, ck.Seq, true
	}
	if s.store.pstore != nil {
		blob, ck, err := s.store.pstore.CheckpointBlob(key)
		if err == nil && ck.State.Explorations > 0 {
			return blob, ck.Seq, true
		}
	}
	return nil, 0, false
}

// handleStateGet serves a program's state blob to a peer (also matches
// HEAD via the mux's GET pattern).
func (s *Server) handleStateGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validStateKey(key) {
		writeJSON(w, http.StatusNotFound, apiError{Error: "malformed program key"})
		return
	}
	blob, seq, ok := s.stateBlob(key)
	if !ok {
		s.mc.Count("serve.replica_serve_misses", 1)
		writeJSON(w, http.StatusNotFound, apiError{Error: "no state for program"})
		return
	}
	s.mc.Count("serve.replica_serve_hits", 1)
	etag := fmt.Sprintf("%q", strconv.FormatUint(seq, 10))
	w.Header().Set("ETag", etag)
	w.Header().Set("X-Owl-State-Seq", strconv.FormatUint(seq, 10))
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if r.Method == http.MethodHead {
		w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
		w.WriteHeader(http.StatusOK)
		return
	}
	// Compression is negotiated explicitly: the peer client and the
	// tests' in-process transports bypass net/http's transparent gzip.
	if strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
		w.Header().Set("Content-Encoding", "gzip")
		w.WriteHeader(http.StatusOK)
		gz := gzip.NewWriter(w)
		gz.Write(blob)
		gz.Close()
		return
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	w.WriteHeader(http.StatusOK)
	w.Write(blob)
}

// handleStateOffer accepts an anti-entropy push. Status codes are the
// convergence protocol: 200 the offer taught this replica something,
// 409 it was entirely stale, 4xx/422 the blob was refused (malformed,
// wrong identity, or unresolvable against the local module).
func (s *Server) handleStateOffer(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validStateKey(key) {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "malformed program key"})
		return
	}
	body, err := readStateBody(w, r)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, apiError{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusBadRequest, apiError{Error: "read blob: " + err.Error()})
		return
	}
	ck, err := persist.DecodeCheckpoint(body)
	if err != nil {
		s.mc.Count("serve.replica_discarded", 1)
		writeJSON(w, http.StatusBadRequest, apiError{Error: "decode blob: " + err.Error()})
		return
	}
	if ck.Key != key {
		s.mc.Count("serve.replica_discarded", 1)
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("blob is for key %.12s, not %.12s", ck.Key, key)})
		return
	}
	code, err := s.importOffer(&ck)
	if err != nil {
		writeJSON(w, code, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, code, map[string]any{"accepted": true})
}

// readStateBody reads an offer body, transparently gunzipping and
// enforcing the blob size bound on both the wire bytes and the inflated
// ones — a small gzip body can otherwise inflate to any size.
func readStateBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	reader := io.Reader(http.MaxBytesReader(w, r.Body, replicate.MaxBlobBytes))
	if r.Header.Get("Content-Encoding") == "gzip" {
		gz, err := gzip.NewReader(reader)
		if err != nil {
			return nil, err
		}
		defer gz.Close()
		reader = http.MaxBytesReader(w, gz, replicate.MaxBlobBytes)
	}
	return io.ReadAll(reader)
}

// importOffer folds a decoded, key-checked offer into the store. The
// identity checks run BEFORE acquire: a blob whose source does not
// re-resolve to its claimed key, or whose module fingerprint disagrees
// with the locally resolved program, must not materialize anything.
func (s *Server) importOffer(ck *persist.Checkpoint) (int, error) {
	prog, name, err := resolveCheckpoint(ck)
	if err != nil {
		s.mc.Count("serve.replica_discarded", 1)
		return http.StatusUnprocessableEntity, fmt.Errorf("blob %w", err)
	}
	// allowPeer=false: accepting a push must not trigger a fetch back at
	// the pusher.
	ps, outcome := s.store.acquireSeeded(ck.Key, name, prog, ck.Source, ck, false)
	defer s.store.release(ps)
	switch outcome {
	case acqImported:
		s.mc.Count("serve.store_programs", 1)
		s.mc.Count("serve.replica_merges", 1)
		return http.StatusOK, nil
	case acqFresh:
		// The identity checks passed but the state import still refused
		// (an unresolvable stable position). The fresh cold program stays
		// — it is a perfectly valid program — but the offer taught us
		// nothing.
		s.mc.Count("serve.store_programs", 1)
		return http.StatusUnprocessableEntity, fmt.Errorf("blob state does not resolve against module")
	}
	// Already live here (or rehydrated from our own disk): merge.
	changed, err := ps.mergeSnapshot(ck)
	if err != nil {
		s.mc.Count("serve.replica_discarded", 1)
		return http.StatusUnprocessableEntity, err
	}
	if !changed {
		return http.StatusConflict, fmt.Errorf("offer is stale: nothing new")
	}
	s.mc.Count("serve.replica_merges", 1)
	return http.StatusOK, nil
}

// mergeSnapshot unions a peer checkpoint into live state: coverage and
// stored reports merge through ExploreState.Merge (journaled, so the
// knowledge reaches the WAL with the next job), report IDs union into
// the dedup set. Submission counts deliberately do NOT merge — they
// count what THIS replica was asked to do. Returns false when the blob
// contained nothing new.
func (ps *programState) mergeSnapshot(ck *persist.Checkpoint) (bool, error) {
	changed, err := ps.state.Merge(ps.prog.Module, ck.State)
	if err != nil {
		return false, err
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.addReports(ck.Reports)) > 0 || changed, nil
}

// offerState enqueues ps's current state for anti-entropy push. Cheap
// and non-blocking (Offer is async); nil-safe when replication is off.
func (s *Server) offerState(ps *programState) {
	if s.rep == nil {
		return
	}
	s.rep.Offer(composeCheckpoint(ps))
}
