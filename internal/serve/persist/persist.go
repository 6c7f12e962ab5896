// Package persist is the crash-safe durability layer under the serve
// store. Each program (content-hash key) owns one directory holding a
// checkpoint — the full accumulated state as of some WAL sequence
// number — and an append-only write-ahead log of per-job deltas. Every
// completed job appends one fsync'd WAL record; every N records the
// serve layer folds the log into a fresh checkpoint (written with the
// tmp+fsync+rename+dir-fsync atomic-replace idiom) and resets the WAL.
// A kill -9 at any instant therefore loses at most the un-fsynced WAL
// tail: recovery replays checkpoint + the valid WAL prefix and truncates
// the rest.
//
// The package stores bytes and recovers structure; it does not know
// what an ExploreState is. Checkpoints carry a full sched.StateSnapshot
// and WAL records a journaled one as opaque-but-versioned JSON; the
// serve layer re-binds them against a re-resolved module (guarded by
// the module fingerprint) and discards wholesale anything that no
// longer resolves — persist's job is only to guarantee that what comes
// back is exactly a durable prefix of what was written, or nothing.
//
// Replay is idempotent by construction: WAL records carry monotonic
// sequence numbers, a checkpoint records the sequence it has folded in,
// and recovery hands back only the records beyond it. A crash between
// "checkpoint renamed" and "WAL reset" — the classic double-apply
// window — leaves stale records in the log; the sequence guard skips
// them.
package persist

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"github.com/conanalysis/owl/internal/faultinject"
	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/sched"
)

// Version is the blob format version every write stamps. Version 2
// stores the program's reports in the state snapshot
// (sched.StateSnapshot's "reports", each with its ID) in place of
// version 1's seen-ID list. A version-1 checkpoint or WAL record still
// decodes, but keeps only its counters and report-ID list (see
// upgrade). A checkpoint with any other version does not rehydrate (it
// is quarantined); bump Version whenever the wire structs or the frame
// grammar change.
const Version = 2

// minVersion is the oldest checkpoint version that still decodes.
const minVersion = 1

// upgrade drops what a state snapshot of an older format version cannot
// vouch for. A version-1 snapshot holds coverage pairs but not the
// reports the jobs that covered them found, so a detect stage resuming
// from those pairs would saturate without finding those reports again,
// and no job would ever store them. Without the pairs the program's next
// job explores cold and fills the stored set.
func upgrade(version int, st *sched.StateSnapshot) {
	if version < 2 && st != nil {
		st.Pairs = nil
	}
}

// ProgramSource is the program identity a checkpoint preserves — the
// Spec fields that resolve() hashes into the store key. Recovery
// re-resolves the module from these and refuses the blob when the
// resolved identity (key, module fingerprint) no longer matches.
type ProgramSource struct {
	Workload string  `json:"workload,omitempty"`
	Recipe   string  `json:"recipe,omitempty"`
	Noise    string  `json:"noise,omitempty"`
	Program  string  `json:"program,omitempty"`
	Inputs   []int64 `json:"inputs,omitempty"`
}

// Checkpoint is the full durable state of one program as of WAL
// sequence Seq: identity, accumulated counters, the deduplicated
// report-ID list in first-seen order, and the stable-form ExploreState.
type Checkpoint struct {
	Version     int                 `json:"version"`
	Key         string              `json:"key"`
	Name        string              `json:"name"`
	Source      ProgramSource       `json:"source"`
	ModuleFP    string              `json:"module_fp"`
	Seq         uint64              `json:"seq"`
	Submissions int                 `json:"submissions"`
	Reports     []string            `json:"reports,omitempty"`
	State       sched.StateSnapshot `json:"state"`
}

// Delta is one job's durable contribution: the absolute submission
// count after the job (absolute, like the journaled Explorations, so
// replaying an already-folded record cannot double-count), the report
// IDs the job newly added in append order, and the state journal the
// job drained (sched.ExploreState.TakeDelta).
type Delta struct {
	SubmissionsAfter int                  `json:"submissions"`
	Reports          []string             `json:"reports,omitempty"`
	State            *sched.StateSnapshot `json:"state,omitempty"`
}

// walRecord is the framed WAL payload: a delta stamped with the format
// version it was written in and its sequence number. Each record
// carries its own version because a WAL recovered from an older format
// gets current records appended. Version-1 records have none (0).
type walRecord struct {
	Version int    `json:"version"`
	Seq     uint64 `json:"seq"`
	Delta   Delta  `json:"delta"`
}

// Options configures a Store.
type Options struct {
	// Faults, when non-nil, injects deterministic disk faults at the
	// persist.* operation points (see frame.go).
	Faults *faultinject.Plan
	// Metrics receives the serve.persist_* counters (nil-safe).
	Metrics *metrics.Collector
}

// Store is one state directory. It owns the directory layout
// (programs/<key>/{CHECKPOINT,WAL}, quarantine/...) and the
// fault-injection sequence counters; per-program durability state lives
// in Logs.
type Store struct {
	dir  string
	opts Options

	mu  sync.Mutex
	seq map[string]int // (key|op) -> next fault-injection sequence
}

// Log is the open durability handle for one program: an append handle
// on its WAL plus the bookkeeping that keeps appends, checkpoints, and
// crash recovery consistent. Methods are safe for concurrent use, but
// the serve layer additionally serializes Append/Checkpoint per program
// so a checkpoint cannot interleave with the absorb it is snapshotting.
type Log struct {
	store *Store
	key   string
	dir   string

	mu      sync.Mutex
	wal     *os.File
	walOff  int64  // end of the last known-good record
	records int    // records appended since the last checkpoint
	nextSeq uint64 // sequence the next Append stamps
	broken  bool   // truncate-back failed; appends refuse until a WAL reset swings in a fresh handle
}

// Recovered is one program successfully rehydrated by Open: its
// checkpoint, the valid WAL records beyond the checkpoint's sequence in
// append order, and the live Log to continue appending to.
type Recovered struct {
	Checkpoint Checkpoint
	Deltas     []Delta
	Log        *Log
}

func (s *Store) count(name string, n int64) { s.opts.Metrics.Count(name, n) }

// Dir returns the state directory root.
func (s *Store) Dir() string { return s.dir }

func (s *Store) programDir(key string) string {
	return filepath.Join(s.dir, "programs", key)
}

// Open opens (creating if needed) a state directory and recovers every
// program in it. Corrupt programs are quarantined and counted, never
// fatal: the error return is only for an unusable directory itself.
// Recovered programs come back sorted by key so boot is deterministic.
func Open(dir string, opts Options) (*Store, []*Recovered, error) {
	s := &Store{dir: dir, opts: opts}
	if err := os.MkdirAll(filepath.Join(dir, "programs"), 0o755); err != nil {
		return nil, nil, fmt.Errorf("persist: %w", err)
	}
	var recovered []*Recovered
	err := s.recoverAll(func(_ string, rec *Recovered, _ repair, err error) {
		if err == nil {
			recovered = append(recovered, rec)
		}
	})
	if err != nil {
		return nil, nil, fmt.Errorf("persist: %w", err)
	}
	return s, recovered, nil
}

// repair is what recovering one program changed on disk.
type repair struct {
	removedTemp int   // leftover temp files deleted
	truncated   int64 // WAL bytes cut off past the valid prefix
}

// recoverAll runs recoverOrQuarantine on every program directory, in
// key order (os.ReadDir sorts by name), handing each outcome to visit.
func (s *Store) recoverAll(visit func(key string, rec *Recovered, rp repair, err error)) error {
	entries, err := os.ReadDir(filepath.Join(s.dir, "programs"))
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			rec, rp, err := s.recoverOrQuarantine(e.Name())
			visit(e.Name(), rec, rp, err)
		}
	}
	return nil
}

// recoverOrQuarantine is the one boot-recovery step, shared by Open,
// Reopen and Fsck: rehydrate the program, or, when its checkpoint or
// WAL cannot be trusted, move it to quarantine and return why.
func (s *Store) recoverOrQuarantine(key string) (*Recovered, repair, error) {
	rec, rp, err := s.recoverProgram(key)
	if err != nil {
		s.count("serve.persist_quarantined", 1)
		if qerr := s.Quarantine(key); qerr != nil {
			// The blob is bad and cannot be moved aside; removing it
			// is the only way to keep the next boot from tripping on
			// it again.
			os.RemoveAll(s.programDir(key))
		}
		return nil, rp, err
	}
	s.count("serve.persist_recovered", 1)
	s.count("serve.persist_replayed", int64(len(rec.Deltas)))
	return rec, rp, nil
}

// recoverProgram rehydrates one program directory. An error means the
// checkpoint itself cannot be trusted (quarantine the directory); WAL
// damage is handled here by truncating to the valid prefix.
func (s *Store) recoverProgram(key string) (*Recovered, repair, error) {
	dir := s.programDir(key)
	var rp repair
	// Leftover temp files are un-renamed partial writes: harmless, remove.
	for _, tmp := range []string{"CHECKPOINT.tmp", "WAL.tmp"} {
		if os.Remove(filepath.Join(dir, tmp)) == nil {
			rp.removedTemp++
		}
	}
	_, ck, err := s.CheckpointBlob(key)
	if err != nil {
		return nil, rp, err
	}

	l := &Log{store: s, key: key, dir: dir, nextSeq: ck.Seq + 1}
	walPath := filepath.Join(dir, "WAL")
	data, err := os.ReadFile(walPath)
	switch {
	case os.IsNotExist(err):
		// Crash between checkpoint rename and WAL creation: the
		// checkpoint alone is the durable state.
		data = nil
	case err != nil:
		return nil, rp, err
	}

	deltas, goodOff, maxSeq := scanWAL(data, ck.Seq)
	l.records = len(deltas)
	if maxSeq >= l.nextSeq {
		l.nextSeq = maxSeq + 1
	}
	if goodOff < len(data) {
		s.count("serve.persist_truncated_tails", 1)
		rp.truncated = int64(len(data) - goodOff)
	}

	// Rewrite or truncate the WAL to exactly its valid prefix, then open
	// the append handle at that point.
	if goodOff == 0 {
		if err := os.WriteFile(walPath, []byte(walMagic), 0o644); err != nil {
			return nil, rp, err
		}
		goodOff = magicLen
	} else if goodOff < len(data) {
		if err := os.Truncate(walPath, int64(goodOff)); err != nil {
			return nil, rp, err
		}
	}
	wal, err := os.OpenFile(walPath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, rp, err
	}
	if err := wal.Sync(); err != nil {
		wal.Close()
		return nil, rp, err
	}
	l.wal, l.walOff = wal, int64(goodOff)
	return &Recovered{Checkpoint: ck, Deltas: deltas, Log: l}, rp, nil
}

// scanWAL walks WAL bytes and returns the deltas of valid records with
// sequence beyond afterSeq (in order), the byte offset where the valid
// prefix ends, and the highest sequence seen. goodOff == 0 means even
// the magic header is unreadable — the whole file is untrustworthy.
func scanWAL(data []byte, afterSeq uint64) (deltas []Delta, goodOff int, maxSeq uint64) {
	if len(data) < magicLen || string(data[:magicLen]) != walMagic {
		return nil, 0, 0
	}
	off := magicLen
	goodOff = off
	for off < len(data) {
		payload, next, ok := readFrame(data, off)
		if !ok {
			break
		}
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil || rec.Version > Version {
			break
		}
		upgrade(rec.Version, rec.Delta.State)
		if rec.Seq <= maxSeq {
			// Sequence went backwards or repeated: everything from here
			// on is from a writer we cannot reason about.
			break
		}
		maxSeq = rec.Seq
		if rec.Seq > afterSeq {
			deltas = append(deltas, rec.Delta)
		}
		off = next
		goodOff = off
	}
	return deltas, goodOff, maxSeq
}

// EncodeCheckpoint renders ck as a standalone checkpoint blob — the
// exact bytes a CHECKPOINT file holds (magic + one CRC-framed JSON
// payload). This is also the replica state-exchange wire format
// (internal/serve/replicate): what one replica serves is what another
// could have read off disk, so both sides share one validator.
func EncodeCheckpoint(ck Checkpoint) ([]byte, error) {
	ck.Version = Version
	buf, err := marshalFramed(ck)
	if err != nil {
		return nil, err
	}
	defer putEncBuf(buf)
	out := make([]byte, 0, magicLen+buf.Len())
	out = append(out, ckptMagic...)
	out = append(out, buf.Bytes()...)
	return out, nil
}

// DecodeCheckpoint validates and decodes a checkpoint blob produced by
// EncodeCheckpoint (or read verbatim from a CHECKPOINT file): magic,
// exactly one well-checksummed frame, a format version it can read. Key
// identity is the caller's to verify — it knows which key it asked for.
func DecodeCheckpoint(data []byte) (Checkpoint, error) {
	var ck Checkpoint
	if len(data) < magicLen || string(data[:magicLen]) != ckptMagic {
		return ck, fmt.Errorf("persist: checkpoint blob: bad magic")
	}
	body := data[magicLen:]
	payload, next, ok := readFrame(body, 0)
	if !ok || next != len(body) {
		return ck, fmt.Errorf("persist: checkpoint blob: corrupt frame")
	}
	if err := json.Unmarshal(payload, &ck); err != nil {
		return ck, fmt.Errorf("persist: checkpoint blob: %w", err)
	}
	if ck.Version < minVersion || ck.Version > Version {
		return ck, fmt.Errorf("persist: checkpoint blob: version %d, want %d to %d", ck.Version, minVersion, Version)
	}
	upgrade(ck.Version, &ck.State)
	return ck, nil
}

// CheckpointBlob reads a program's durable CHECKPOINT file verbatim and
// validates it — what boot recovery starts from, and the bytes a
// replica serves for a program it has evicted from memory. The WAL tail is deliberately not folded in: the
// blob is whatever the last checkpoint covered (ck.Seq says how much),
// and a peer that wants fresher state will hear about it through the
// next anti-entropy push.
func (s *Store) CheckpointBlob(key string) ([]byte, Checkpoint, error) {
	data, err := os.ReadFile(filepath.Join(s.programDir(key), "CHECKPOINT"))
	if err != nil {
		return nil, Checkpoint{}, err
	}
	ck, err := DecodeCheckpoint(data)
	if err != nil {
		return nil, Checkpoint{}, err
	}
	if ck.Key != key {
		return nil, Checkpoint{}, fmt.Errorf("persist: checkpoint key %s under directory %s", ck.Key, key)
	}
	return data, ck, nil
}

// Create makes the program directory and writes its first checkpoint
// and an empty WAL, returning the live Log. Any failure leaves no
// half-created program behind.
func (s *Store) Create(ck Checkpoint) (*Log, error) {
	ck.Version = Version
	dir := s.programDir(ck.Key)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{store: s, key: ck.Key, dir: dir, nextSeq: ck.Seq + 1}
	if err := l.writeCheckpointLocked(ck); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := l.resetWALLocked(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return l, nil
}

// Reopen recovers a single program directory — the lazy-rehydrate path
// after an eviction. It returns (nil, nil) when key has no durable
// state; a damaged blob is quarantined (exactly as Open would) and
// returned as an error.
func (s *Store) Reopen(key string) (*Recovered, error) {
	if _, err := os.Stat(s.programDir(key)); err != nil {
		return nil, nil
	}
	rec, _, err := s.recoverOrQuarantine(key)
	return rec, err
}

// Quarantine moves a program directory aside under quarantine/ so boot
// never trips on it again but a human (or fsck) can inspect it.
func (s *Store) Quarantine(key string) error {
	qdir := filepath.Join(s.dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return err
	}
	dst := filepath.Join(qdir, key)
	for i := 1; ; i++ {
		if _, err := os.Stat(dst); os.IsNotExist(err) {
			break
		}
		dst = filepath.Join(qdir, fmt.Sprintf("%s.%d", key, i))
	}
	return os.Rename(s.programDir(key), dst)
}

// LastSeq returns the sequence number of the last appended record (or
// the checkpoint's, when none).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// Records returns the number of WAL records since the last checkpoint —
// the input to the serve layer's checkpoint-every policy.
func (l *Log) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// Append stamps the delta with the next sequence number and appends one
// fsync'd record. On failure the WAL is truncated back to its last good
// record, so a failed append never leaves a partial frame for recovery
// to trip on; if even the truncate fails the log marks itself broken
// and refuses further appends — existing durable state stays intact —
// until a successful checkpoint replaces the suspect WAL with a fresh
// one.
func (l *Log) Append(d Delta) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken {
		return fmt.Errorf("persist: log for %s is broken (earlier append failed unrecoverably)", l.key)
	}
	buf, err := marshalFramed(walRecord{Version: Version, Seq: l.nextSeq, Delta: d})
	if err != nil {
		return err
	}
	defer putEncBuf(buf)
	n := buf.Len()
	err = l.store.write(l.wal, l.key, "persist.wal.append", buf.Bytes())
	if err == nil {
		err = l.store.fsync(l.wal, l.key, "persist.wal.fsync")
	}
	if err != nil {
		if terr := l.wal.Truncate(l.walOff); terr != nil {
			l.broken = true
		}
		return err
	}
	l.walOff += int64(n)
	l.records++
	l.nextSeq++
	l.store.count("serve.persist_wal_records", 1)
	l.store.count("serve.persist_wal_bytes", int64(n))
	return nil
}

// Checkpoint atomically replaces the program's checkpoint with ck and
// resets the WAL. The caller composes ck from its live state and stamps
// ck.Seq = LastSeq(); records at or below it are covered. If the
// checkpoint lands but the WAL reset fails, the log stays usable — the
// stale records are skipped at recovery by the sequence guard — and the
// error is reported so the caller can count it.
func (l *Log) Checkpoint(ck Checkpoint) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	ck.Version = Version
	if err := l.writeCheckpointLocked(ck); err != nil {
		return err
	}
	l.store.count("serve.persist_checkpoints", 1)
	// The checkpoint now covers every record in the WAL; from the policy's
	// point of view the log is empty even if the physical reset fails.
	l.records = 0
	if err := l.resetWALLocked(); err != nil {
		return fmt.Errorf("persist: checkpoint written but WAL reset failed (stale records remain, harmless): %w", err)
	}
	return nil
}

func (l *Log) writeCheckpointLocked(ck Checkpoint) error {
	buf, err := marshalFramed(ck)
	if err != nil {
		return err
	}
	defer putEncBuf(buf)
	return l.store.writeFileAtomic(l.key, "persist.checkpoint",
		filepath.Join(l.dir, "CHECKPOINT"), ckptMagic, buf.Bytes())
}

// resetWALLocked atomically replaces the WAL with an empty one and
// swings the append handle over to it.
func (l *Log) resetWALLocked() error {
	path := filepath.Join(l.dir, "WAL")
	if err := l.store.writeFileAtomic(l.key, "persist.wal.reset", path, walMagic, nil); err != nil {
		return err
	}
	wal, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if l.wal != nil {
		l.wal.Close()
	}
	l.wal, l.walOff = wal, magicLen
	// A fresh WAL handle at a known-good offset clears any earlier
	// broken mark: broken meant "the old handle's tail is untrustworthy
	// and could not be truncated back", and that handle is gone now.
	l.broken = false
	return nil
}

// Close releases the WAL handle. The log must not be used afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wal == nil {
		return nil
	}
	err := l.wal.Close()
	l.wal = nil
	return err
}
