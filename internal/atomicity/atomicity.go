// Package atomicity implements a CTrigger-style atomicity-violation
// detector. The paper names atomicity violations as the other major
// concurrency-bug class and explicitly leaves the integration to future
// work ("Atomicity violations can be detected by other detectors (e.g.,
// CTrigger). By integrating these detectors (future work), OWL's analysis
// and verifier components can detect more concurrency attacks", §8.3).
// This package closes that gap: it watches the interpreter event stream
// for the classic unserializable interleavings of two local accesses to a
// shared location split by a remote access —
//
//	R_local .. W_remote .. R_local   (non-repeatable read)
//	W_local .. W_remote .. W_local   (intermediate write clobbered)
//	W_local .. R_remote .. W_local   (remote sees intermediate state)
//	R_local .. W_remote .. W_local   (stale-premise write)
//
// — and emits reports shaped like race reports, so OWL's Algorithm 1 can
// consume their read side unchanged (see Report.AsRace).
package atomicity

import (
	"fmt"

	"github.com/conanalysis/owl/internal/callstack"
	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/race"
)

// Kind classifies the unserializable interleaving.
type Kind int

// Violation kinds, named by the access triple (local, remote, local).
const (
	KindRWR Kind = iota + 1
	KindWWW
	KindWRW
	KindRWW
)

func (k Kind) String() string {
	switch k {
	case KindRWR:
		return "R-W-R (non-repeatable read)"
	case KindWWW:
		return "W-W-W (clobbered intermediate write)"
	case KindWRW:
		return "W-R-W (remote read of intermediate state)"
	case KindRWW:
		return "R-W-W (write from stale premise)"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Report is one deduplicated atomicity violation.
type Report struct {
	Kind Kind
	// First/Remote/Second are the three accesses of the triple.
	First, Remote, Second race.Access
	// AddrName labels the shared memory.
	AddrName string
	Count    int
}

// ID identifies the static triple.
func (r *Report) ID() string {
	return fmt.Sprintf("%s | %s | %s | %d",
		r.First.Instr.FullName(), r.Remote.Instr.FullName(),
		r.Second.Instr.FullName(), r.Kind)
}

func (r *Report) String() string {
	return fmt.Sprintf("atomicity violation %s on %s (x%d)\n  local  %s\n  remote %s\n  local  %s",
		r.Kind, r.AddrName, r.Count, r.First, r.Remote, r.Second)
}

// AsRace adapts the violation to a race.Report so OWL's downstream
// components (race verifier input shape, Algorithm 1's read side) can
// consume it: the remote access and the second local access form the
// conflicting pair.
func (r *Report) AsRace() *race.Report {
	return &race.Report{
		Prev:     r.Remote,
		Cur:      r.Second,
		AddrName: r.AddrName,
		Count:    r.Count,
	}
}

// accRec is a stored access: the report-side fields plus a lazily
// materializable call-stack handle. Stacks are only built for the rare
// access that ends up in a new report.
type accRec struct {
	acc  race.Access // Stack stays nil until materialize
	sref interp.StackRef
}

func (a accRec) materialize() race.Access {
	acc := a.acc
	acc.Stack = a.sref.Materialize()
	return acc
}

// lastLocal tracks the most recent access to an address per thread.
type lastLocal struct {
	acc   accRec
	valid bool
	// remote holds an intervening remote access since the local one.
	remote      accRec
	remoteValid bool
}

// tripleKey identifies a static violation for in-run dedup without
// building the ID string: instruction identity is pointer identity
// within one module.
type tripleKey struct {
	first, remote, second *ir.Instr
	kind                  Kind
}

// Detector is an interpreter observer detecting unserializable triples.
// Accesses inside the same mutex critical section as the remote write are
// still reported — like CTrigger, the detector approximates atomicity
// intent from access adjacency, and the dynamic verifier downstream is
// what prunes false alarms.
type Detector struct {
	state map[int64]map[interp.ThreadID]*lastLocal
	byKey map[tripleKey]*Report
	order []*Report
	// MaxGap bounds (in steps) how far apart the first and second local
	// access may be for the triple to count (default 2000); local
	// accesses further apart rarely encode an atomicity assumption.
	MaxGap int
}

var _ interp.Observer = (*Detector)(nil)
var _ interp.StackPolicy = (*Detector)(nil)

// NeedsStack implements interp.StackPolicy: only memory accesses can end
// up in a report.
func (d *Detector) NeedsStack(k interp.EventKind) bool {
	return k == interp.EvRead || k == interp.EvWrite
}

// NewDetector returns a fresh detector.
func NewDetector() *Detector {
	return &Detector{
		state:  make(map[int64]map[interp.ThreadID]*lastLocal),
		byKey:  make(map[tripleKey]*Report),
		MaxGap: 2000,
	}
}

// Reports returns deduplicated violations in first-seen order.
func (d *Detector) Reports() []*Report { return d.order }

// OnEvent implements interp.Observer.
func (d *Detector) OnEvent(m *interp.Machine, e *interp.Event) {
	if e.Kind != interp.EvRead && e.Kind != interp.EvWrite {
		return
	}
	isWrite := e.Kind == interp.EvWrite
	acc := accRec{
		acc: race.Access{
			TID: e.TID, IsWrite: isWrite, Addr: e.Addr, Val: e.Val,
			Instr: e.Instr, Step: e.Step,
		},
		sref: e.StackRef(),
	}
	perThread := d.state[e.Addr]
	if perThread == nil {
		perThread = make(map[interp.ThreadID]*lastLocal)
		d.state[e.Addr] = perThread
	}

	// This access is "remote" for every other thread with a pending local
	// access to the same address.
	for tid, ll := range perThread {
		if tid == e.TID || !ll.valid {
			continue
		}
		ll.remote = acc
		ll.remoteValid = true
	}

	// And it is the second local access for this thread, if a remote
	// access intervened.
	ll := perThread[e.TID]
	if ll == nil {
		ll = &lastLocal{}
		perThread[e.TID] = ll
	}
	if ll.valid && ll.remoteValid && e.Step-ll.acc.acc.Step <= d.maxGap() {
		if kind, ok := classify(ll.acc.acc.IsWrite, ll.remote.acc.IsWrite, isWrite); ok {
			d.report(m, kind, ll.acc, ll.remote, acc)
		}
	}
	ll.acc = acc
	ll.valid = true
	ll.remoteValid = false
}

func (d *Detector) maxGap() int {
	if d.MaxGap > 0 {
		return d.MaxGap
	}
	return 2000
}

// classify maps the access triple to a violation kind. The serializable
// triples (R-R-*, *-R-R patterns where the remote access is a read next
// to local reads) are not violations.
func classify(w1, wr, w2 bool) (Kind, bool) {
	switch {
	case !w1 && wr && !w2:
		return KindRWR, true
	case w1 && wr && w2:
		return KindWWW, true
	case w1 && !wr && w2:
		return KindWRW, true
	case !w1 && wr && w2:
		return KindRWW, true
	default:
		return 0, false
	}
}

func (d *Detector) report(m *interp.Machine, kind Kind, first, remote, second accRec) {
	key := tripleKey{first.acc.Instr, remote.acc.Instr, second.acc.Instr, kind}
	if existing, ok := d.byKey[key]; ok {
		existing.Count++
		return
	}
	r := &Report{
		Kind: kind, First: first.materialize(), Remote: remote.materialize(),
		Second:   second.materialize(),
		AddrName: m.Mem().NameFor(second.acc.Addr), Count: 1,
	}
	d.byKey[key] = r
	d.order = append(d.order, r)
}

// ReadSideOf returns the Algorithm-1 starting point for a violation: the
// second local access when it is a read, else the first.
func ReadSideOf(r *Report) (*ir.Instr, callstack.Stack, bool) {
	if !r.Second.IsWrite && r.Second.Instr != nil {
		return r.Second.Instr, r.Second.Stack, true
	}
	if !r.First.IsWrite && r.First.Instr != nil {
		return r.First.Instr, r.First.Stack, true
	}
	return nil, nil, false
}
