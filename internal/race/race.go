// Package race implements a happens-before data-race detector in the style
// of ThreadSanitizer, the application-level detector OWL integrates (§6.3).
// It consumes the interpreter's event stream: plain reads/writes are
// checked against FastTrack-style epoch shadow words (falling back to full
// vector-clock read sets only where reads are concurrently shared); lock
// acquire/release and thread spawn/join install happens-before edges.
//
// Reports are deduplicated by the unordered pair of racing instructions,
// like TSAN's per-code-location suppression, and carry both call stacks,
// the racing values, and the name of the racing memory ("@global+off"),
// which is what OWL's downstream analyses consume.
//
// Annotations mark benign races: after OWL's ad-hoc synchronization
// detector identifies a sync, its racing pair is annotated — the paper's
// TSAN markup step (§5.1). An annotation only decides whether a race is
// reported; it never adds a happens-before edge. So the pipeline applies
// Annotations.Suppresses to the reports of an unannotated run instead of
// detecting again: a detector with Benign set, over the same schedule,
// reports exactly those that survive. Annotations must not be mutated
// while a run is in progress.
//
// Detector is the epoch-based production detector. The package tests
// hold ReferenceDetector, the original full vector-clock implementation,
// as the differential-testing oracle and the eager arm of the detector
// ablation benchmarks; both produce identical report streams for
// identical event streams.
package race

import (
	"fmt"
	"strings"

	"github.com/conanalysis/owl/internal/callstack"
	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
)

// Access is one side of a race.
type Access struct {
	TID     interp.ThreadID
	IsWrite bool
	Addr    int64
	Val     int64
	Instr   *ir.Instr
	Stack   callstack.Stack
	Step    int
}

func (a Access) String() string {
	kind := "read"
	if a.IsWrite {
		kind = "write"
	}
	loc := "?"
	if a.Instr != nil {
		loc = a.Instr.Loc()
	}
	return fmt.Sprintf("%s of value %d by thread %d at %s", kind, a.Val, a.TID, loc)
}

// Report is a deduplicated data-race report. Prev is the access observed
// first in the run; Cur the conflicting one. Count tallies dynamic
// occurrences of the same static pair.
type Report struct {
	Prev, Cur Access
	// AddrName is a human label for the racing memory ("@dying").
	AddrName string
	Count    int
}

// ID returns a stable identity for the static race (unordered instruction
// pair). It is built on demand — display and cross-run merging use it;
// the detectors' in-run dedup keys on the instruction pointers instead.
func (r *Report) ID() string {
	a, b := r.Prev.Instr.FullName(), r.Cur.Instr.FullName()
	if a > b {
		a, b = b, a
	}
	return a + " <-> " + b
}

// ReadSide returns the racing access that is a read, preferring Cur; the
// vulnerability analyzer starts from the read side (§6.1). For write-write
// races it returns false.
func (r *Report) ReadSide() (Access, bool) {
	if !r.Cur.IsWrite {
		return r.Cur, true
	}
	if !r.Prev.IsWrite {
		return r.Prev, true
	}
	return Access{}, false
}

// WriteSide returns a racing write access (there is always at least one).
func (r *Report) WriteSide() Access {
	if r.Cur.IsWrite {
		return r.Cur
	}
	return r.Prev
}

func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "data race on %s (x%d)\n", r.AddrName, r.Count)
	fmt.Fprintf(&b, "  %s\n", r.Cur)
	for _, line := range strings.Split(r.Cur.Stack.String(), "\n") {
		fmt.Fprintf(&b, "    %s\n", line)
	}
	fmt.Fprintf(&b, "  previous %s\n", r.Prev)
	for _, line := range strings.Split(r.Prev.Stack.String(), "\n") {
		fmt.Fprintf(&b, "    %s\n", line)
	}
	return b.String()
}

// Annotations suppress benign races by racing instruction pair: how
// OWL's §5.1 pass annotates ad-hoc synchronizations (the TSAN-markup
// analogue). Other racy accesses to the same variable keep being
// reported, which is what lets OWL still find the SSDB attack behind an
// ad-hoc-sync-shaped variable.
type Annotations struct {
	pairs map[[2]*ir.Instr]bool
}

// NewAnnotations returns an empty annotation set.
func NewAnnotations() *Annotations {
	return &Annotations{pairs: make(map[[2]*ir.Instr]bool)}
}

// AddPair suppresses the specific unordered racing pair (a, b).
func (a *Annotations) AddPair(x, y *ir.Instr) {
	a.pairs[[2]*ir.Instr{x, y}] = true
	a.pairs[[2]*ir.Instr{y, x}] = true
}

// Len returns the number of suppressed pairs.
func (a *Annotations) Len() int { return len(a.pairs) / 2 }

// Suppresses reports whether the annotations suppress the report: the
// test the detector applies before it records a race, so dropping the
// suppressed reports of an unannotated run leaves what an annotated run
// over the same schedule records.
func (a *Annotations) Suppresses(r *Report) bool {
	return a.suppresses(r.Prev.Instr, r.Cur.Instr)
}

func (a *Annotations) suppresses(i1, i2 *ir.Instr) bool {
	return a != nil && a.pairs[[2]*ir.Instr{i1, i2}]
}
