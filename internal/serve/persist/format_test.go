package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/conanalysis/owl/internal/sched"
)

// formatDir holds the committed version-1 bytes: the CHECKPOINT and WAL
// files that formatCheckpoint plus the two formatDeltas produce.
var formatDir = filepath.Join("testdata", "format-v1")

func formatCheckpoint() Checkpoint {
	return Checkpoint{
		Version:  Version,
		Key:      testKey,
		Name:     "format/prog",
		Source:   ProgramSource{Workload: "libsafe", Noise: "light", Inputs: []int64{3, 1}},
		ModuleFP: "0123456789abcdef",
		Seq:      5,
		// Submissions and Explorations differ so a field swap shows.
		Submissions: 4,
		Reports:     []string{"race-b", "race-a"},
		State: sched.StateSnapshot{
			Pairs: []sched.StablePair{
				{FromFn: "main", FromIx: 0, ToFn: "worker", ToIx: 7},
				{FromFn: "worker", FromIx: 2, ToIx: -1},
			},
			Seen:         []string{"race-a", "race-b"},
			Explorations: 3,
		},
	}
}

func formatDeltas() []Delta {
	return []Delta{
		{
			SubmissionsAfter: 5,
			Reports:          []string{"race-c"},
			State: &sched.StateSnapshot{
				Pairs:        []sched.StablePair{{FromFn: "main", FromIx: 4, ToFn: "main", ToIx: 9}},
				Seen:         []string{"race-c"},
				Explorations: 4,
			},
		},
		{
			SubmissionsAfter: 6,
			State: &sched.StateSnapshot{
				Pairs: []sched.StablePair{
					{FromIx: -1, ToFn: "worker", ToIx: 1},
					{FromFn: "worker", FromIx: 3, ToFn: "worker", ToIx: 5},
				},
				Seen:         []string{"race-d", "race-e"},
				Explorations: 5,
			},
		},
	}
}

// TestOnDiskFormatPinned pins format version 1 byte for byte: Create
// plus two Appends must write exactly the committed CHECKPOINT and WAL,
// and Open over those committed bytes must hand back exactly the
// inputs. A change that moves a byte either bumps Version or is a bug.
func TestOnDiskFormatPinned(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := s.Create(formatCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range formatDeltas() {
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
		want, err := os.ReadFile(filepath.Join(formatDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s bytes differ from the version-1 fixture:\n got %q\nwant %q", name, got, want)
		}
	}

	// Recovery reads the committed bytes, not the ones just written.
	fixture := t.TempDir()
	pdir := filepath.Join(fixture, "programs", testKey)
	if err := os.MkdirAll(pdir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"CHECKPOINT", "WAL"} {
		b, err := os.ReadFile(filepath.Join(formatDir, name))
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
		t.Fatalf("recovered %d programs from the fixture, want 1", len(recovered))
	}
	defer recovered[0].Log.Close()
	if got, want := recovered[0].Checkpoint, formatCheckpoint(); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered checkpoint\n got %+v\nwant %+v", got, want)
	}
	if got, want := recovered[0].Deltas, formatDeltas(); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered deltas\n got %+v\nwant %+v", got, want)
	}
}
