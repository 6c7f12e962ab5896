package persist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/conanalysis/owl/internal/callstack"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/sched"
)

// The committed fixtures: testdata/format-v<N> holds the CHECKPOINT and
// WAL files of format version N. formatCheckpoint(N) plus formatDeltas(N)
// are what recovery returns from them, and for the current Version also
// what the writer is given to produce them.
func formatDir(version int) string {
	return filepath.Join("testdata", fmt.Sprintf("format-v%d", version))
}

// formatReport is a stored report in stable form: a racing pair seen
// from main and worker, with stacks.
func formatReport(id string, ix int) sched.StableReport {
	return sched.StableReport{
		ID: id,
		Prev: sched.StableAccess{
			TID: 1, IsWrite: true, Addr: 4096, Val: 7,
			Instr: ir.InstrPos{Func: "worker", Index: ix},
			Stack: callstack.Stack{{Fn: "worker", Pos: ir.Pos{File: "p.oir", Line: 12}}},
			Step:  40,
		},
		Cur: sched.StableAccess{
			TID: 0, Addr: 4096, Val: 0,
			Instr: ir.InstrPos{Func: "main", Index: 3},
			Stack: callstack.Stack{{Fn: "main", Pos: ir.Pos{File: "p.oir", Line: 3}}},
			Step:  41,
		},
		AddrName: "@x",
		Count:    2,
	}
}

// formatCheckpoint is the checkpoint of the version-N fixture. The
// version-1 fixture also holds coverage pairs and a seen-ID list;
// recovery keeps only its counters and report IDs (see upgrade).
func formatCheckpoint(version int) Checkpoint {
	ck := Checkpoint{
		Version:  version,
		Key:      testKey,
		Name:     "format/prog",
		Source:   ProgramSource{Workload: "libsafe", Noise: "light", Inputs: []int64{3, 1}},
		ModuleFP: "0123456789abcdef",
		Seq:      5,
		// Submissions and Explorations differ so a field swap shows.
		Submissions: 4,
		Reports:     []string{"race-b", "race-a"},
		State:       sched.StateSnapshot{Explorations: 3},
	}
	if version >= 2 {
		ck.State.Pairs = []sched.StablePair{
			{FromFn: "main", FromIx: 0, ToFn: "worker", ToIx: 7},
			{FromFn: "worker", FromIx: 2, ToIx: -1},
		}
		ck.State.Reports = []sched.StableReport{formatReport("race-b", 5), formatReport("race-a", 1)}
	}
	return ck
}

// formatDeltas are the WAL records of the version-N fixture, upgraded
// as formatCheckpoint's state is. The second record is a job that found
// new coverage but no new report.
func formatDeltas(version int) []Delta {
	ds := []Delta{
		{SubmissionsAfter: 5, Reports: []string{"race-c"}, State: &sched.StateSnapshot{Explorations: 4}},
		{SubmissionsAfter: 6, State: &sched.StateSnapshot{Explorations: 5}},
	}
	if version >= 2 {
		ds[0].State.Pairs = []sched.StablePair{{FromFn: "main", FromIx: 4, ToFn: "main", ToIx: 9}}
		ds[0].State.Reports = []sched.StableReport{formatReport("race-c", 2)}
		ds[1].State.Pairs = []sched.StablePair{
			{FromIx: -1, ToFn: "worker", ToIx: 1},
			{FromFn: "worker", FromIx: 3, ToFn: "worker", ToIx: 5},
		}
	}
	return ds
}

// TestOnDiskFormatPinned pins the current format version byte for
// byte: Create plus two Appends must write exactly the committed
// CHECKPOINT and WAL, and Open over those committed bytes must hand back
// exactly the inputs. Every older fixture must still recover, upgraded.
// A change that moves a byte either bumps Version or is a bug.
func TestOnDiskFormatPinned(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := s.Create(formatCheckpoint(Version))
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range formatDeltas(Version) {
		if err := l.Append(d); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	l.Close()
	for _, name := range []string{"CHECKPOINT", "WAL"} {
		got, err := os.ReadFile(filepath.Join(s.programDir(testKey), name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(formatDir(Version), name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s bytes differ from the version-%d fixture:\n got %q\nwant %q", name, Version, got, want)
		}
	}

	// Recovery reads the committed bytes, not the ones just written.
	for version := minVersion; version <= Version; version++ {
		fixture := t.TempDir()
		pdir := filepath.Join(fixture, "programs", testKey)
		if err := os.MkdirAll(pdir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"CHECKPOINT", "WAL"} {
			b, err := os.ReadFile(filepath.Join(formatDir(version), name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(pdir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, recovered, err := Open(fixture, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(recovered) != 1 {
			t.Fatalf("recovered %d programs from the version-%d fixture, want 1", len(recovered), version)
		}
		recovered[0].Log.Close()
		if got, want := recovered[0].Checkpoint, formatCheckpoint(version); !reflect.DeepEqual(got, want) {
			t.Errorf("version %d: recovered checkpoint\n got %+v\nwant %+v", version, got, want)
		}
		if got, want := recovered[0].Deltas, formatDeltas(version); !reflect.DeepEqual(got, want) {
			t.Errorf("version %d: recovered deltas\n got %+v\nwant %+v", version, got, want)
		}
	}
}

// TestDecodeCheckpointVersions: the decoder reads every version from
// minVersion to Version and refuses the rest, so a blob from a newer
// writer (or a corrupt version word) is quarantined, not misread.
func TestDecodeCheckpointVersions(t *testing.T) {
	for v := minVersion - 1; v <= Version+1; v++ {
		buf, err := marshalFramed(formatCheckpoint(v))
		if err != nil {
			t.Fatal(err)
		}
		blob := append([]byte(ckptMagic), buf.Bytes()...)
		putEncBuf(buf)
		_, err = DecodeCheckpoint(blob)
		if want := v >= minVersion && v <= Version; (err == nil) != want {
			t.Errorf("version %d: decode error %v, want accepted=%v", v, err, want)
		}
	}
}

// TestOlderWALTakesCurrentRecords: a server that recovers a version-1
// program appends current records to the version-1 WAL. The next
// recovery must upgrade each record by its own version: the version-1
// records lose their pairs, the appended one keeps them.
func TestOlderWALTakesCurrentRecords(t *testing.T) {
	fixture := t.TempDir()
	pdir := filepath.Join(fixture, "programs", testKey)
	if err := os.MkdirAll(pdir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"CHECKPOINT", "WAL"} {
		b, err := os.ReadFile(filepath.Join(formatDir(1), name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(pdir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, recovered, err := Open(fixture, Options{})
	if err != nil || len(recovered) != 1 {
		t.Fatalf("recover the version-1 fixture: %d programs, err %v", len(recovered), err)
	}
	current := formatDeltas(Version)[1]
	if err := recovered[0].Log.Append(current); err != nil {
		t.Fatal(err)
	}
	recovered[0].Log.Close()

	_, recovered, err = Open(fixture, Options{})
	if err != nil || len(recovered) != 1 {
		t.Fatalf("reopen: %d programs, err %v", len(recovered), err)
	}
	recovered[0].Log.Close()
	if got, want := recovered[0].Deltas, append(formatDeltas(1), current); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered deltas\n got %+v\nwant %+v", got, want)
	}
}
