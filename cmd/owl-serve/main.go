// Command owl-serve runs the always-on OWL analysis service: an
// HTTP/JSON API over the owl.Run pipeline with a bounded sharded job
// queue, per-tenant quotas, SSE progress streams, and a content-hash
// keyed store that accumulates exploration state so repeat submissions
// of a program resume its schedule search instead of restarting it.
//
// Usage:
//
//	owl-serve [-addr :8080] [-shards 4] [-queue 64] [-workers 1]
//	          [-tenant-quota 16] [-drain-timeout 30s]
//	          [-state-dir DIR] [-checkpoint-every 8] [-max-programs 0]
//	          [-peers http://replica-2:8080,...] [-peer-timeout 2s]
//	owl-serve -fsck -state-dir DIR
//
// With -peers the replica joins a fleet: a cold submission first asks
// the listed peers for the program's accumulated state (so only one
// replica ever pays a program's cold-start), and after each checkpoint
// fold the replica pushes its newest state back out (anti-entropy). A
// peer being down, slow, or corrupt never fails a submission — it only
// costs warmth. See docs/SERVE.md.
//
// With -state-dir the store is crash-safe: every completed job is
// WAL-appended under the directory before its status publishes, boot
// replays checkpoint+WAL (quarantining anything damaged), and a repeat
// submission after a restart resumes exactly where the dead process
// left off. -fsck validates and repairs a state directory offline and
// exits (nonzero when programs had to be quarantined).
//
// SIGINT/SIGTERM triggers a graceful drain: the listener stops
// accepting, queued and running jobs finish, state is checkpointed,
// then the process exits. See docs/SERVE.md for the API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/conanalysis/owl/internal/cliflags"
	"github.com/conanalysis/owl/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "owl-serve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("owl-serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	shards := fs.Int("shards", 4, "shard queues (jobs for one program serialize on one shard)")
	queue := fs.Int("queue", 64, "per-shard queue depth (full queue → 429 + Retry-After)")
	workers := fs.Int("workers", 1, "default per-job pipeline worker-pool size")
	tenantQuota := fs.Int("tenant-quota", 16, "max queued+running jobs per tenant")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight jobs on shutdown")
	stateDir := fs.String("state-dir", "", "state directory for crash-safe persistence (empty = in-memory only)")
	checkpointEvery := fs.Int("checkpoint-every", 8, "fold a program's WAL into a checkpoint after this many records")
	maxPrograms := fs.Int("max-programs", 0, "max in-memory program states; LRU-evict beyond this (0 = 64 with -state-dir, else unlimited; <0 = unlimited)")
	peers := fs.String("peers", "", "comma-separated base URLs of the other fleet replicas (fleet warm-start; empty = off)")
	peerTimeout := fs.Duration("peer-timeout", 2*time.Second, "per-request timeout against a fleet peer")
	fsck := fs.Bool("fsck", false, "validate and repair -state-dir, print a report, and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	peerURLs, err := cliflags.ParsePeers(*peers)
	if err != nil {
		return fmt.Errorf("-peers: %w", err)
	}

	if *fsck {
		if *stateDir == "" {
			return fmt.Errorf("-fsck requires -state-dir")
		}
		rep, err := serve.Fsck(*stateDir)
		if err != nil {
			return err
		}
		rep.Write(os.Stdout)
		if rep.Quarantined > 0 {
			return fmt.Errorf("%d program(s) quarantined", rep.Quarantined)
		}
		return nil
	}

	srv, err := serve.New(serve.Config{
		Shards:          *shards,
		QueueDepth:      *queue,
		Workers:         *workers,
		TenantQuota:     *tenantQuota,
		RetryAfter:      *retryAfter,
		StateDir:        *stateDir,
		CheckpointEvery: *checkpointEvery,
		MaxPrograms:     *maxPrograms,
		Peers:           peerURLs,
		PeerTimeout:     *peerTimeout,
	})
	if err != nil {
		return err
	}
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() {
		if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "owl-serve: %s: draining\n", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop the listener first so no new submissions land, then let the
	// shard queues run dry.
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "owl-serve: drained")
	return nil
}
