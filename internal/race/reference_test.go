package race

import (
	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/vclock"
)

// lastAccess is the reference detector's stored access: a full Access
// (stack already materialized) plus the clock component needed for the
// happens-before test.
type lastAccess struct {
	tid   interp.ThreadID
	tick  uint64
	acc   Access
	valid bool
}

// varState is the reference detector's per-address state: last write plus
// a per-thread map of last reads.
type varState struct {
	write lastAccess
	reads map[interp.ThreadID]lastAccess
}

// ReferenceDetector is the pre-epoch implementation of the race
// detector: map-keyed per-address state, a per-thread read map for every
// address, and eagerly materialized call stacks on every access. It is
// kept verbatim, in a test file, as the oracle for differential testing
// of Detector and as the "full vector clock / eager stacks" arm of the
// ablation benchmarks (DESIGN.md §5). Its reports are byte-identical to
// Detector's for the same event stream.
type ReferenceDetector struct {
	// Benign, when non-nil, suppresses annotated races.
	Benign *Annotations

	vcs   map[interp.ThreadID]*vclock.VC
	locks map[int64]*vclock.VC
	vars  map[int64]*varState
	byID  map[string]*Report
	order []*Report
}

var _ interp.Observer = (*ReferenceDetector)(nil)
var _ interp.StackPolicy = (*ReferenceDetector)(nil)

// NewReferenceDetector returns a fresh reference detector.
func NewReferenceDetector() *ReferenceDetector {
	return &ReferenceDetector{
		vcs:   make(map[interp.ThreadID]*vclock.VC),
		locks: make(map[int64]*vclock.VC),
		vars:  make(map[int64]*varState),
		byID:  make(map[string]*Report),
	}
}

// NeedsStack implements interp.StackPolicy: the reference detector
// stores a materialized stack with every access it retains.
func (d *ReferenceDetector) NeedsStack(k interp.EventKind) bool {
	return k == interp.EvRead || k == interp.EvWrite
}

// Reports returns the deduplicated race reports in first-seen order.
func (d *ReferenceDetector) Reports() []*Report { return d.order }

func (d *ReferenceDetector) vc(tid interp.ThreadID) *vclock.VC {
	v := d.vcs[tid]
	if v == nil {
		v = vclock.New()
		v.Tick(int(tid))
		d.vcs[tid] = v
	}
	return v
}

func (d *ReferenceDetector) state(addr int64) *varState {
	s := d.vars[addr]
	if s == nil {
		s = &varState{reads: make(map[interp.ThreadID]lastAccess)}
		d.vars[addr] = s
	}
	return s
}

// OnEvent implements interp.Observer.
func (d *ReferenceDetector) OnEvent(m *interp.Machine, e *interp.Event) {
	switch e.Kind {
	case interp.EvAcquire:
		if l := d.locks[e.Addr]; l != nil {
			d.vc(e.TID).Join(l)
		}
	case interp.EvRelease:
		me := d.vc(e.TID)
		d.locks[e.Addr] = me.Copy()
		me.Tick(int(e.TID))
	case interp.EvSpawn:
		parent := d.vc(e.TID)
		child := parent.Copy()
		child.Tick(int(e.Aux))
		d.vcs[interp.ThreadID(e.Aux)] = child
		parent.Tick(int(e.TID))
	case interp.EvJoin:
		if cv := d.vcs[interp.ThreadID(e.Aux)]; cv != nil {
			d.vc(e.TID).Join(cv)
		}
	case interp.EvRead:
		d.onRead(m, e)
	case interp.EvWrite:
		d.onWrite(m, e)
	}
}

// access builds a report-side Access, eagerly materializing the stack —
// the cost the epoch detector's lazy StackRef path avoids.
func (d *ReferenceDetector) access(e *interp.Event, isWrite bool) Access {
	return Access{
		TID: e.TID, IsWrite: isWrite, Addr: e.Addr, Val: e.Val,
		Instr: e.Instr, Stack: e.StackRef().Materialize(), Step: e.Step,
	}
}

func (d *ReferenceDetector) onRead(m *interp.Machine, e *interp.Event) {
	me := d.vc(e.TID)
	s := d.state(e.Addr)
	if s.write.valid && s.write.tid != e.TID &&
		!me.HappensBefore(int(s.write.tid), s.write.tick) {
		d.report(m, s.write.acc, d.access(e, false))
	}
	s.reads[e.TID] = lastAccess{
		tid: e.TID, tick: me.Get(int(e.TID)), acc: d.access(e, false), valid: true,
	}
}

func (d *ReferenceDetector) onWrite(m *interp.Machine, e *interp.Event) {
	me := d.vc(e.TID)
	s := d.state(e.Addr)
	if s.write.valid && s.write.tid != e.TID &&
		!me.HappensBefore(int(s.write.tid), s.write.tick) {
		d.report(m, s.write.acc, d.access(e, true))
	}
	// One pass over the stored reads: a read ordered before this write is
	// superseded (cleared, to bound state growth); an unordered read from
	// another thread races and stays stored.
	for tid, rd := range s.reads {
		if me.HappensBefore(int(tid), rd.tick) {
			delete(s.reads, tid)
			continue
		}
		if rd.valid && tid != e.TID {
			d.report(m, rd.acc, d.access(e, true))
		}
	}
	s.write = lastAccess{
		tid: e.TID, tick: me.Get(int(e.TID)), acc: d.access(e, true), valid: true,
	}
}

func (d *ReferenceDetector) report(m *interp.Machine, prev, cur Access) {
	if d.Benign.suppresses(prev.Instr, cur.Instr) {
		return
	}
	r := &Report{Prev: prev, Cur: cur, AddrName: m.Mem().NameFor(cur.Addr), Count: 1}
	if existing, ok := d.byID[r.ID()]; ok {
		existing.Count++
		return
	}
	d.byID[r.ID()] = r
	d.order = append(d.order, r)
}
