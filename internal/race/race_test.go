package race

import (
	"testing"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/sched"
)

// detect runs src under the given scheduler with a fresh detector attached
// and returns the detector.
func detect(t *testing.T, src string, s interp.Scheduler, benign *Annotations) *Detector {
	t.Helper()
	mod, err := ir.Parse("race_test.oir", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	d := NewDetector()
	d.Benign = benign
	m, err := interp.New(interp.Config{
		Module: mod, Sched: s, Observers: []interp.Observer{d},
	})
	if err != nil {
		t.Fatalf("new machine: %v", err)
	}
	m.Run()
	return d
}

const racySrc = `
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

func TestDetectsSimpleRace(t *testing.T) {
	// Interleave so the load and store are unordered.
	d := detect(t, racySrc, sched.NewRoundRobin(1), nil)
	if len(d.Reports()) != 1 {
		t.Fatalf("got %d reports, want 1:\n%v", len(d.Reports()), d.Reports())
	}
	r := d.Reports()[0]
	if r.AddrName != "@x" {
		t.Errorf("addr name = %q, want @x", r.AddrName)
	}
	if _, ok := r.ReadSide(); !ok {
		t.Errorf("race should have a read side")
	}
	if !r.WriteSide().IsWrite {
		t.Errorf("WriteSide is not a write")
	}
}

const lockedSrc = `
global @m = 0
global @x = 0

func @worker() {
entry:
  call @mutex_lock(@m)
  store 1, @x
  call @mutex_unlock(@m)
  ret 0
}
func @main() {
entry:
  %t = call @spawn(@worker)
  call @mutex_lock(@m)
  %v = load @x
  call @mutex_unlock(@m)
  %r = call @join(%t)
  ret 0
}
`

func TestLockOrderedAccessesAreNotRaces(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		d := detect(t, lockedSrc, sched.NewRandom(seed), nil)
		if n := len(d.Reports()); n != 0 {
			t.Fatalf("seed %d: got %d reports, want 0:\n%s", seed, n, d.Reports()[0])
		}
	}
}

const spawnJoinSrc = `
global @x = 0

func @worker() {
entry:
  store 1, @x
  ret 0
}
func @main() {
entry:
  store 5, @x
  %t = call @spawn(@worker)
  %r = call @join(%t)
  %v = load @x
  call @print(%v)
  ret 0
}
`

func TestSpawnJoinEdgesOrderAccesses(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		d := detect(t, spawnJoinSrc, sched.NewRandom(seed), nil)
		if n := len(d.Reports()); n != 0 {
			t.Fatalf("seed %d: got %d reports, want 0:\n%s", seed, n, d.Reports()[0])
		}
	}
}

const wwSrc = `
global @x = 0

func @worker() {
entry:
  store 2, @x
  ret 0
}
func @main() {
entry:
  %t = call @spawn(@worker)
  store 1, @x
  %r = call @join(%t)
  ret 0
}
`

func TestWriteWriteRace(t *testing.T) {
	d := detect(t, wwSrc, sched.NewRoundRobin(1), nil)
	if len(d.Reports()) != 1 {
		t.Fatalf("got %d reports, want 1", len(d.Reports()))
	}
	r := d.Reports()[0]
	if _, ok := r.ReadSide(); ok {
		t.Errorf("write-write race must have no read side")
	}
}

const loopRaceSrc = `
global @x = 0

func @worker() {
entry:
  jmp loop
loop:
  %i = phi [entry: 0], [loop: %i2]
  store %i, @x
  %i2 = add %i, 1
  %c = icmp lt %i2, 10
  br %c, loop, done
done:
  ret 0
}
func @main() {
entry:
  %t = call @spawn(@worker)
  jmp loop
loop:
  %i = phi [entry: 0], [loop: %i2]
  %v = load @x
  %i2 = add %i, 1
  %c = icmp lt %i2, 10
  br %c, loop, done
done:
  %r = call @join(%t)
  ret 0
}
`

func TestDynamicOccurrencesDeduplicate(t *testing.T) {
	d := detect(t, loopRaceSrc, sched.NewRoundRobin(1), nil)
	if len(d.Reports()) != 1 {
		t.Fatalf("got %d reports, want 1 deduplicated", len(d.Reports()))
	}
	if d.Reports()[0].Count < 2 {
		t.Errorf("count = %d, want >= 2 dynamic occurrences", d.Reports()[0].Count)
	}
}

func TestReportStacksAndValues(t *testing.T) {
	d := detect(t, racySrc, sched.NewRoundRobin(1), nil)
	r := d.Reports()[0]
	w := r.WriteSide()
	if w.Val != 1 {
		t.Errorf("write value = %d, want 1", w.Val)
	}
	if len(w.Stack) == 0 || w.Stack.Innermost().Fn != "worker" {
		t.Errorf("write stack = %v, want innermost worker", w.Stack)
	}
	rd, _ := r.ReadSide()
	if len(rd.Stack) == 0 || rd.Stack.Innermost().Fn != "main" {
		t.Errorf("read stack = %v, want innermost main", rd.Stack)
	}
}

func TestRaceOnHeapBlockNamedByAllocation(t *testing.T) {
	src := `
global @ptr = 0

func @worker() {
entry:
  %p = load @ptr
  store 9, %p
  ret 0
}
func @main() {
entry:
  %p = call @malloc(2)
  store %p, @ptr
  %t = call @spawn(@worker)
  %v = load %p
  %r = call @join(%t)
  ret 0
}
`
	d := detect(t, src, sched.NewRoundRobin(1), nil)
	var heapRace *Report
	for _, r := range d.Reports() {
		if r.AddrName != "@ptr" {
			heapRace = r
		}
	}
	if heapRace == nil {
		t.Fatalf("no heap race found in %d reports", len(d.Reports()))
	}
	if heapRace.AddrName == "" {
		t.Errorf("heap race has empty addr name")
	}
}
