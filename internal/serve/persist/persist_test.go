package persist

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/conanalysis/owl/internal/faultinject"
	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/sched"
)

const testKey = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"

func testCheckpoint(seq uint64, submissions int) Checkpoint {
	return Checkpoint{
		Key:         testKey,
		Name:        "test/prog",
		Source:      ProgramSource{Program: "module m\n", Inputs: []int64{1, 2}},
		ModuleFP:    "deadbeef",
		Seq:         seq,
		Submissions: submissions,
		Reports:     []string{"r0"},
		State:       sched.StateSnapshot{Reports: []sched.StableReport{{ID: "r0"}}, Explorations: submissions},
	}
}

func testDelta(i int) Delta {
	return Delta{
		SubmissionsAfter: i,
		Reports:          []string{"r" + strings.Repeat("x", i)},
		State: &sched.StateSnapshot{
			Pairs:        []sched.StablePair{{FromFn: "f", FromIx: i, ToFn: "g", ToIx: 0}},
			Reports:      []sched.StableReport{{ID: "r" + strings.Repeat("x", i)}},
			Explorations: i,
		},
	}
}

func counterVal(c *metrics.Collector, name string) int64 {
	for _, cr := range c.Snapshot().Counters {
		if cr.Name == name {
			return cr.Value
		}
	}
	return 0
}

// TestCheckpointWALRoundTrip: create, append, close, reopen — recovery
// hands back the checkpoint and every appended delta in order, and the
// sequence numbering continues where it left off.
func TestCheckpointWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, recovered, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh dir recovered %d programs", len(recovered))
	}
	l, err := s.Create(testCheckpoint(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 4; i++ {
		if err := l.Append(testDelta(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if l.LastSeq() != 3 || l.Records() != 3 {
		t.Fatalf("lastSeq=%d records=%d, want 3/3", l.LastSeq(), l.Records())
	}
	l.Close()

	mc := metrics.New()
	_, recovered, err = Open(dir, Options{Metrics: mc})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 {
		t.Fatalf("recovered %d programs, want 1", len(recovered))
	}
	rec := recovered[0]
	if rec.Checkpoint.Key != testKey || rec.Checkpoint.Submissions != 1 || rec.Checkpoint.ModuleFP != "deadbeef" {
		t.Fatalf("checkpoint = %+v", rec.Checkpoint)
	}
	if len(rec.Deltas) != 3 {
		t.Fatalf("deltas = %d, want 3", len(rec.Deltas))
	}
	for i, d := range rec.Deltas {
		if d.SubmissionsAfter != i+2 || d.State == nil || d.State.Pairs[0].FromIx != i+2 {
			t.Fatalf("delta %d = %+v", i, d)
		}
	}
	if rec.Log.LastSeq() != 3 {
		t.Fatalf("recovered lastSeq = %d, want 3", rec.Log.LastSeq())
	}
	if got := counterVal(mc, "serve.persist_recovered"); got != 1 {
		t.Errorf("persist_recovered = %d", got)
	}
	if got := counterVal(mc, "serve.persist_replayed"); got != 3 {
		t.Errorf("persist_replayed = %d", got)
	}
	rec.Log.Close()
}

// TestCheckpointCoversWAL: records at or below the checkpoint's
// sequence are not replayed; the WAL physically resets.
func TestCheckpointCoversWAL(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := Open(dir, Options{})
	l, err := s.Create(testCheckpoint(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	l.Append(testDelta(2))
	l.Append(testDelta(3))
	if err := l.Checkpoint(testCheckpoint(l.LastSeq(), 3)); err != nil {
		t.Fatal(err)
	}
	if l.Records() != 0 {
		t.Fatalf("records after checkpoint = %d", l.Records())
	}
	if err := l.Append(testDelta(4)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	_, recovered, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := recovered[0]
	if rec.Checkpoint.Submissions != 3 || rec.Checkpoint.Seq != 2 {
		t.Fatalf("checkpoint = %+v", rec.Checkpoint)
	}
	if len(rec.Deltas) != 1 || rec.Deltas[0].SubmissionsAfter != 4 {
		t.Fatalf("deltas = %+v", rec.Deltas)
	}
	rec.Log.Close()
}

// TestTornWriteLosesOnlyTail: a torn append (the kill -9 page-cache
// case — reported as success, half the bytes on disk) costs exactly
// that record at recovery; the prefix survives and the log keeps
// working afterwards.
func TestTornWriteLosesOnlyTail(t *testing.T) {
	dir := t.TempDir()
	plan := &faultinject.Plan{Rules: []faultinject.Rule{
		{Stage: "persist.wal.append", Run: 2, Kind: faultinject.KindTornWrite},
	}}
	s, _, _ := Open(dir, Options{Faults: plan})
	l, err := s.Create(testCheckpoint(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 4; i++ { // third append (run seq 2) tears silently
		if err := l.Append(testDelta(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	l.Close()

	mc := metrics.New()
	_, recovered, err := Open(dir, Options{Metrics: mc})
	if err != nil {
		t.Fatal(err)
	}
	rec := recovered[0]
	if len(rec.Deltas) != 2 {
		t.Fatalf("deltas = %d, want 2 (torn third lost)", len(rec.Deltas))
	}
	if got := counterVal(mc, "serve.persist_truncated_tails"); got != 1 {
		t.Errorf("truncated_tails = %d", got)
	}
	// The torn tail was physically truncated; new appends land cleanly.
	if rec.Log.LastSeq() != 2 {
		t.Fatalf("lastSeq after tear = %d, want 2", rec.Log.LastSeq())
	}
	if err := rec.Log.Append(testDelta(4)); err != nil {
		t.Fatal(err)
	}
	rec.Log.Close()
	_, recovered, _ = Open(dir, Options{})
	if len(recovered[0].Deltas) != 3 {
		t.Fatalf("after repair deltas = %d, want 3", len(recovered[0].Deltas))
	}
	recovered[0].Log.Close()
}

// TestBitFlipDetected: a flipped bit in a WAL record fails its CRC and
// costs the tail; a flipped bit in a checkpoint quarantines the program
// instead of serving silently-wrong coverage.
func TestBitFlipDetected(t *testing.T) {
	t.Run("wal", func(t *testing.T) {
		dir := t.TempDir()
		plan := &faultinject.Plan{Rules: []faultinject.Rule{
			{Stage: "persist.wal.append", Run: 1, Kind: faultinject.KindBitFlip, Bit: 77},
		}}
		s, _, _ := Open(dir, Options{Faults: plan})
		l, _ := s.Create(testCheckpoint(0, 1))
		l.Append(testDelta(2))
		l.Append(testDelta(3)) // flipped on disk
		l.Append(testDelta(4)) // unreadable: after the corrupt frame
		l.Close()

		mc := metrics.New()
		_, recovered, err := Open(dir, Options{Metrics: mc})
		if err != nil {
			t.Fatal(err)
		}
		if len(recovered[0].Deltas) != 1 {
			t.Fatalf("deltas = %d, want 1 (flip kills record 2 and strands record 3)", len(recovered[0].Deltas))
		}
		if counterVal(mc, "serve.persist_truncated_tails") != 1 {
			t.Error("flip not counted as truncated tail")
		}
		recovered[0].Log.Close()
	})
	t.Run("checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		plan := &faultinject.Plan{Rules: []faultinject.Rule{
			{Stage: "persist.checkpoint.write", Run: -1, Kind: faultinject.KindBitFlip, Bit: 300},
		}}
		s, _, _ := Open(dir, Options{Faults: plan})
		if _, err := s.Create(testCheckpoint(0, 1)); err != nil {
			t.Fatal(err)
		}
		mc := metrics.New()
		_, recovered, err := Open(dir, Options{Metrics: mc})
		if err != nil {
			t.Fatal(err)
		}
		if len(recovered) != 0 {
			t.Fatalf("corrupt checkpoint recovered: %+v", recovered[0].Checkpoint)
		}
		if counterVal(mc, "serve.persist_quarantined") != 1 {
			t.Error("corrupt checkpoint not counted")
		}
		if _, err := os.Stat(filepath.Join(dir, "quarantine")); err != nil {
			t.Errorf("no quarantine dir: %v", err)
		}
		if _, err := os.Stat(filepath.Join(dir, "programs", testKey)); !os.IsNotExist(err) {
			t.Error("corrupt program still under programs/")
		}
	})
}

// TestShortWriteAndFsyncErrorFailAppend: faults that report errors make
// Append fail cleanly — the WAL is truncated back, the next append
// succeeds, and recovery never sees a partial frame.
func TestShortWriteAndFsyncErrorFailAppend(t *testing.T) {
	for _, kind := range []faultinject.Kind{faultinject.KindShortWrite, faultinject.KindFsyncError} {
		t.Run(string(kind), func(t *testing.T) {
			stage := "persist.wal.append"
			if kind == faultinject.KindFsyncError {
				stage = "persist.wal.fsync"
			}
			dir := t.TempDir()
			plan := &faultinject.Plan{Rules: []faultinject.Rule{{Stage: stage, Run: 1, Kind: kind}}}
			s, _, _ := Open(dir, Options{Faults: plan})
			l, _ := s.Create(testCheckpoint(0, 1))
			if err := l.Append(testDelta(2)); err != nil {
				t.Fatal(err)
			}
			if err := l.Append(testDelta(3)); err == nil {
				t.Fatal("faulted append reported success")
			}
			if err := l.Append(testDelta(4)); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			l.Close()
			_, recovered, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			rec := recovered[0]
			if len(rec.Deltas) != 2 || rec.Deltas[0].SubmissionsAfter != 2 || rec.Deltas[1].SubmissionsAfter != 4 {
				t.Fatalf("deltas = %+v", rec.Deltas)
			}
			rec.Log.Close()
		})
	}
}

// TestCheckpointCrashBeforeWALReset: the classic double-apply window. A
// checkpoint lands but the WAL reset fails; the stale records stay in
// the log and recovery must skip them via the sequence guard.
func TestCheckpointCrashBeforeWALReset(t *testing.T) {
	dir := t.TempDir()
	plan := &faultinject.Plan{Rules: []faultinject.Rule{
		{Stage: "persist.wal.reset.write", Run: 1, Kind: faultinject.KindShortWrite},
	}}
	s, _, _ := Open(dir, Options{Faults: plan})
	l, _ := s.Create(testCheckpoint(0, 1)) // reset run 0: creation
	l.Append(testDelta(2))
	l.Append(testDelta(3))
	if err := l.Checkpoint(testCheckpoint(l.LastSeq(), 3)); err == nil {
		t.Fatal("checkpoint with failed WAL reset reported full success")
	}
	// The log stays usable: the next append lands in the OLD WAL with a
	// fresh sequence number.
	if err := l.Append(testDelta(4)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	_, recovered, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := recovered[0]
	if rec.Checkpoint.Submissions != 3 {
		t.Fatalf("checkpoint = %+v, want the new one", rec.Checkpoint)
	}
	if len(rec.Deltas) != 1 || rec.Deltas[0].SubmissionsAfter != 4 {
		t.Fatalf("deltas = %+v, want only the post-checkpoint record", rec.Deltas)
	}
	rec.Log.Close()
}

// TestGarbageTailTruncated: raw garbage appended after a kill is cut
// off at recovery without losing the good prefix.
func TestGarbageTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := Open(dir, Options{})
	l, _ := s.Create(testCheckpoint(0, 1))
	l.Append(testDelta(2))
	l.Close()
	walPath := filepath.Join(dir, "programs", testKey, "WAL")
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xff, 0x13, 0x37, 0x00, 0x42})
	f.Close()

	_, recovered, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := recovered[0]
	if len(rec.Deltas) != 1 {
		t.Fatalf("deltas = %d, want 1", len(rec.Deltas))
	}
	if err := rec.Log.Append(testDelta(3)); err != nil {
		t.Fatal(err)
	}
	rec.Log.Close()
	_, recovered, _ = Open(dir, Options{})
	if len(recovered[0].Deltas) != 2 {
		t.Fatalf("post-repair deltas = %d, want 2", len(recovered[0].Deltas))
	}
	recovered[0].Log.Close()
}

// TestFsck: a state dir with one healthy program, one torn WAL, one
// corrupt checkpoint, and temp leftovers fscks to the right accounting,
// and a subsequent Open recovers cleanly.
func TestFsck(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := Open(dir, Options{})
	l, _ := s.Create(testCheckpoint(0, 1))
	l.Append(testDelta(2))
	l.Close()

	tornKey := strings.Repeat("b", 64)
	ck := testCheckpoint(0, 1)
	ck.Key = tornKey
	l2, _ := s.Create(ck)
	l2.Append(testDelta(2))
	l2.Close()
	tornWAL := filepath.Join(dir, "programs", tornKey, "WAL")
	f, _ := os.OpenFile(tornWAL, os.O_WRONLY|os.O_APPEND, 0o644)
	f.Write([]byte("torn"))
	f.Close()

	badKey := strings.Repeat("c", 64)
	badDir := filepath.Join(dir, "programs", badKey)
	os.MkdirAll(badDir, 0o755)
	os.WriteFile(filepath.Join(badDir, "CHECKPOINT"), []byte("not a checkpoint"), 0o644)
	os.WriteFile(filepath.Join(badDir, "CHECKPOINT.tmp"), []byte("leftover"), 0o644)

	rep, err := Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Programs) != 3 || rep.OK != 2 || rep.Quarantined != 1 || rep.RemovedTemp != 1 {
		t.Fatalf("report = %+v", rep)
	}
	for _, p := range rep.Programs {
		switch p.Key {
		case testKey:
			if !p.OK || p.Records != 1 || p.Submissions != 2 {
				t.Errorf("healthy program verdict = %+v", p)
			}
		case tornKey:
			if !p.OK || p.TruncatedBytes != 4 {
				t.Errorf("torn program verdict = %+v", p)
			}
		case badKey:
			if p.OK || p.Err == "" {
				t.Errorf("corrupt program verdict = %+v", p)
			}
		}
	}

	// After fsck the directory opens without further repair.
	mc := metrics.New()
	_, recovered, err := Open(dir, Options{Metrics: mc})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 2 {
		t.Fatalf("post-fsck recovery = %d programs, want 2", len(recovered))
	}
	if counterVal(mc, "serve.persist_truncated_tails") != 0 {
		t.Error("fsck left a torn tail behind")
	}
	for _, r := range recovered {
		r.Log.Close()
	}
}

// TestBrokenLogRecoversAfterCheckpoint: a log marked broken (failed
// truncate-back after a failed append) refuses appends only until a
// successful checkpoint swings in a fresh WAL — not for the rest of the
// process lifetime.
func TestBrokenLogRecoversAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := s.Create(testCheckpoint(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	l.broken = true
	l.mu.Unlock()
	if err := l.Append(testDelta(2)); err == nil {
		t.Fatal("append on a broken log succeeded")
	}
	if err := l.Checkpoint(testCheckpoint(l.LastSeq(), 2)); err != nil {
		t.Fatalf("checkpoint on a broken log: %v", err)
	}
	if err := l.Append(testDelta(3)); err != nil {
		t.Fatalf("append still refused after the WAL was replaced: %v", err)
	}
	l.Close()

	_, recovered, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || len(recovered[0].Deltas) != 1 || recovered[0].Deltas[0].SubmissionsAfter != 3 {
		t.Fatalf("recovered = %+v, want the one post-recovery delta", recovered)
	}
	recovered[0].Log.Close()
}

// TestFsckUnreadableWALQuarantines: a WAL that exists but cannot be
// read is an untrustworthy program — fsck must quarantine it (as boot
// recovery would), not report it ok with a buried error.
func TestFsckUnreadableWALQuarantines(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := s.Create(testCheckpoint(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	// A directory where the WAL file should be makes ReadFile fail with
	// an error that is not NotExist, regardless of the test's privileges.
	walPath := filepath.Join(dir, "programs", testKey, "WAL")
	os.Remove(walPath)
	if err := os.Mkdir(walPath, 0o755); err != nil {
		t.Fatal(err)
	}

	rep, err := Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 0 || rep.Quarantined != 1 || len(rep.Programs) != 1 {
		t.Fatalf("report = %+v, want the program quarantined", rep)
	}
	p := rep.Programs[0]
	if p.OK || p.Err == "" {
		t.Fatalf("verdict = %+v, want not-OK with the read error", p)
	}
	if _, err := os.Stat(filepath.Join(dir, "programs", testKey)); !os.IsNotExist(err) {
		t.Error("quarantined program still present under programs/")
	}
}

// TestFsckEmptyDir: fsck of a nonexistent or empty dir is clean.
func TestFsckEmptyDir(t *testing.T) {
	rep, err := Fsck(filepath.Join(t.TempDir(), "never-created"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Programs) != 0 || rep.Quarantined != 0 {
		t.Fatalf("report = %+v", rep)
	}
}
