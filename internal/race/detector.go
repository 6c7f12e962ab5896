package race

import (
	"sync"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/vclock"
)

// accessMeta is the per-access bookkeeping the detector must retain to
// build a Report later: who accessed, what value, where, and a
// zero-allocation handle on the call stack. Stacks are only materialized
// when an access actually ends up in a report.
type accessMeta struct {
	tid   interp.ThreadID
	val   int64
	step  int
	instr *ir.Instr
	sref  interp.StackRef
}

// readEntry is one thread's last read in read-shared mode.
type readEntry struct {
	tid  interp.ThreadID
	tick uint64
	meta accessMeta
}

// shadowSlot is the FastTrack shadow word for one address. The common
// case keeps the whole read history in a single epoch (read): reads stay
// thread-exclusive, so "last read" is one (tid, tick) pair. Only when a
// second distinct thread reads the address does the slot promote to
// read-shared mode (shared, tid-sorted), the moral equivalent of the old
// per-thread read map — and a write that supersedes every stored read
// demotes it back.
type shadowSlot struct {
	write vclock.Epoch
	read  vclock.Epoch // exclusive-reader epoch; zero when none or shared
	wMeta accessMeta
	rMeta accessMeta
	// shared holds per-thread reads in read-shared mode, sorted by tid so
	// multi-read race reporting is deterministic. len(shared) > 0 is the
	// mode flag; capacity is kept across demotions.
	shared []readEntry
}

// Stats are the detector's hot-path counters. They are plain ints bumped
// inline (the detector runs synchronously on the machine's goroutine) and
// flushed to a metrics.Collector once per run via FlushMetrics, keeping
// the per-event path free of mutexes.
type Stats struct {
	// Events counts every event the detector consumed.
	Events int64
	// FastpathHits counts reads and writes fully handled by the
	// same-epoch O(1) comparison, skipping all vector-clock work.
	FastpathHits int64
	// EpochPromotions counts exclusive-read epochs promoted to
	// read-shared vector state by a second distinct reading thread.
	EpochPromotions int64
	// StackCaptures counts call-stack materializations — one per access
	// that made it into a new report, rather than one per event.
	StackCaptures int64
}

// Detector is the race detector; attach it as an interpreter observer.
// It is FastTrack-shaped: per-address state is an epoch shadow word in a
// flat table indexed by arena offset, and the per-event hot path is
// allocation-free once thread clocks and the shadow table are warm.
type Detector struct {
	// Benign, when non-nil, suppresses annotated races.
	Benign *Annotations

	vcs   []*vclock.VC // indexed by thread id (dense from 0)
	locks map[int64]*vclock.VC

	slots []shadowSlot // indexed by addr - interp.ArenaBase
	low   map[int64]*shadowSlot

	byPair map[[2]*ir.Instr]*Report
	order  []*Report

	stats Stats

	// spin is the period MarkSpin opened: the counters at its start, and
	// loud once an event since changed more than last-read metadata.
	spin spinMark
}

// spinMark is a Detector's open spin period.
type spinMark struct {
	events, fastpath int64
	loud             bool
}

var _ interp.Observer = (*Detector)(nil)
var _ interp.StackPolicy = (*Detector)(nil)
var _ interp.SpinObserver = (*Detector)(nil)

// NewDetector returns a fresh detector.
func NewDetector() *Detector {
	return &Detector{
		locks:  make(map[int64]*vclock.VC),
		byPair: make(map[[2]*ir.Instr]*Report),
	}
}

// NeedsStack implements interp.StackPolicy: only memory accesses can end
// up in a report, so only they need a stack handle attached.
func (d *Detector) NeedsStack(k interp.EventKind) bool {
	return k == interp.EvRead || k == interp.EvWrite
}

// Reports returns the deduplicated race reports in first-seen order.
func (d *Detector) Reports() []*Report { return d.order }

// Stats returns a snapshot of the detector's hot-path counters.
func (d *Detector) Stats() Stats { return d.stats }

// FlushMetrics adds the detector's counters to c (nil-safe, like all
// Collector methods). Call it once after the run; counters accumulate
// across detectors flushed into the same collector.
func (d *Detector) FlushMetrics(c *metrics.Collector) {
	c.Count("race.events", d.stats.Events)
	c.Count("race.fastpath_hits", d.stats.FastpathHits)
	c.Count("race.epoch_promotions", d.stats.EpochPromotions)
	c.Count("race.stack_captures", d.stats.StackCaptures)
}

func (d *Detector) vc(tid interp.ThreadID) *vclock.VC {
	for int(tid) >= len(d.vcs) {
		d.vcs = append(d.vcs, nil)
	}
	v := d.vcs[tid]
	if v == nil {
		d.spin.loud = true
		v = vclock.New()
		v.Tick(int(tid))
		d.vcs[tid] = v
	}
	return v
}

func (d *Detector) setVC(tid interp.ThreadID, v *vclock.VC) {
	for int(tid) >= len(d.vcs) {
		d.vcs = append(d.vcs, nil)
	}
	d.vcs[tid] = v
}

// tablePool recycles shadow tables across detectors. A table is most of
// a detection run's allocation, and its size follows the program's
// arena, so the next run, of any program, can reuse it. Release hands a
// table back dirty; the detector that takes it clears it.
var tablePool sync.Pool // of *[]shadowSlot

// takeTable returns a cleared pooled table of length 0, or nil when the
// pool is empty. Only the first len entries of a released table were
// ever written (slot grows len to every index it touches), so clearing
// those leaves the whole capacity zero.
func takeTable() []shadowSlot {
	p, _ := tablePool.Get().(*[]shadowSlot)
	if p == nil {
		return nil
	}
	t := *p
	clear(t)
	return t[:0]
}

// Release hands the detector's shadow table to the pool for a later
// detector to reuse. Call it once the run is over and its reports are
// collected: reports copy what they keep, so none points into the
// table. The detector must observe no further events.
func (d *Detector) Release() {
	if cap(d.slots) == 0 {
		return
	}
	t := d.slots
	d.slots = nil
	tablePool.Put(&t)
}

// minTable is a new shadow table's capacity. The built-in models'
// detection runs touch at most a few hundred arena words (light noise:
// 19–136), and a pooled table keeps what it grew to, so a small start
// costs a couple of early doublings instead of a mostly idle table per
// concurrent run.
const minTable = 64

// slot returns the shadow word for addr. Arena addresses are dense above
// interp.ArenaBase, so the table is flat and the lookup one subtraction;
// addresses below the base (never produced by the arena, but observers
// must not crash on hostile events) fall back to a map. A detector's
// first table comes from the pool when it holds one; a new table starts
// at minTable slots and doubles.
func (d *Detector) slot(addr int64) *shadowSlot {
	i := addr - interp.ArenaBase
	if i < 0 {
		if d.low == nil {
			d.low = make(map[int64]*shadowSlot)
		}
		s := d.low[addr]
		if s == nil {
			s = &shadowSlot{}
			d.low[addr] = s
		}
		return s
	}
	if int64(len(d.slots)) <= i {
		if d.slots == nil {
			d.slots = takeTable()
		}
		if int64(cap(d.slots)) > i {
			d.slots = d.slots[:i+1]
		} else {
			n := int64(cap(d.slots)) * 2
			if n <= i {
				n = i + 1
			}
			if n < minTable {
				n = minTable
			}
			grown := make([]shadowSlot, i+1, n)
			copy(grown, d.slots)
			d.slots = grown
		}
	}
	return &d.slots[i]
}

func metaOf(e *interp.Event) accessMeta {
	return accessMeta{tid: e.TID, val: e.Val, step: e.Step, instr: e.Instr, sref: e.StackRef()}
}

// set overwrites a with e's metadata field by field: the per-access
// hot path then copies no whole accessMeta through a temporary.
func (a *accessMeta) set(e *interp.Event) {
	a.tid, a.val, a.step, a.instr, a.sref = e.TID, e.Val, e.Step, e.Instr, e.StackRef()
}

// MarkSpin implements interp.SpinObserver.
func (d *Detector) MarkSpin() {
	d.spin = spinMark{events: d.stats.Events, fastpath: d.stats.FastpathHits}
}

// SpinQuiet implements interp.SpinObserver. A period is quiet when its
// only reads were same-epoch reads, reporting nothing: the fast path,
// or a thread re-reading at the epoch it has stored in read-shared mode
// (several threads polling one flag). A repetition then moves only the
// last-read metadata, which the repetition overwrites. Writes, sync
// events, reports (a new one or a Count++) and every other read path
// are loud. Events the detector ignores (branches, calls) are quiet.
func (d *Detector) SpinQuiet() bool { return !d.spin.loud }

// SkipSpin implements interp.SpinObserver: it credits k repetitions of
// the quiet period's events to the counters, so they stay exact.
func (d *Detector) SkipSpin(k int) {
	d.stats.Events += int64(k) * (d.stats.Events - d.spin.events)
	d.stats.FastpathHits += int64(k) * (d.stats.FastpathHits - d.spin.fastpath)
}

// OnEvent implements interp.Observer.
func (d *Detector) OnEvent(m *interp.Machine, e *interp.Event) {
	d.stats.Events++
	switch e.Kind {
	case interp.EvAcquire:
		d.spin.loud = true
		if l := d.locks[e.Addr]; l != nil {
			d.vc(e.TID).Join(l)
		}
	case interp.EvRelease:
		d.spin.loud = true
		me := d.vc(e.TID)
		l := d.locks[e.Addr]
		if l == nil {
			l = vclock.New()
			d.locks[e.Addr] = l
		}
		l.CopyFrom(me)
		me.Tick(int(e.TID))
	case interp.EvSpawn:
		d.spin.loud = true
		parent := d.vc(e.TID)
		child := parent.Copy()
		child.Tick(int(e.Aux))
		d.setVC(interp.ThreadID(e.Aux), child)
		parent.Tick(int(e.TID))
	case interp.EvJoin:
		d.spin.loud = true
		if cv := d.vcOf(interp.ThreadID(e.Aux)); cv != nil {
			d.vc(e.TID).Join(cv)
		}
	case interp.EvRead:
		d.onRead(m, e)
	case interp.EvWrite:
		d.onWrite(m, e)
	}
}

func (d *Detector) vcOf(tid interp.ThreadID) *vclock.VC {
	if int(tid) < len(d.vcs) {
		return d.vcs[tid]
	}
	return nil
}

func (d *Detector) onRead(m *interp.Machine, e *interp.Event) {
	me := d.vc(e.TID)
	s := d.slot(e.Addr)
	// Unlike classic FastTrack, a same-epoch read cannot skip the write
	// check: lock acquisition joins clocks without ticking the reader's
	// own component, so the verdict (and the report's dynamic count) can
	// change between two reads at one epoch.
	if !s.write.IsZero() && s.write.TID() != int(e.TID) && !me.Observes(s.write) {
		d.report(m, s.wMeta, true, metaOf(e), false, e.Addr)
	}
	cur := me.EpochOf(int(e.TID))
	if len(s.shared) == 0 && s.read == cur {
		// Same-epoch read: only the report metadata moves (the last read
		// at an address wins, and is what a later racing write reports
		// against).
		d.stats.FastpathHits++
		s.rMeta.set(e)
		return
	}
	if len(s.shared) == 0 {
		d.spin.loud = true
		if s.read.IsZero() || s.read.TID() == int(e.TID) {
			s.read = cur
			s.rMeta.set(e)
			return
		}
		// Second distinct reading thread: promote to read-shared. Any
		// second reader promotes (not just an unordered one) — the
		// write pass is what prunes ordered reads, exactly as the
		// per-thread read map did.
		d.stats.EpochPromotions++
		s.shared = append(s.shared[:0], readEntry{
			tid: interp.ThreadID(s.read.TID()), tick: s.read.Tick(), meta: s.rMeta,
		})
		s.read = 0
		s.rMeta = accessMeta{}
		s.insertShared(readEntry{tid: e.TID, tick: cur.Tick(), meta: metaOf(e)})
		return
	}
	if i, ok := s.sharedAt(e.TID); ok && s.shared[i].tick == cur.Tick() {
		// A repeated read at the thread's stored epoch: as on the
		// fast path, only its metadata moves.
		s.shared[i].meta.set(e)
		return
	}
	d.spin.loud = true
	s.insertShared(readEntry{tid: e.TID, tick: cur.Tick(), meta: metaOf(e)})
}

// sharedAt returns the index of tid's read in read-shared mode, or
// where it would go and false.
func (s *shadowSlot) sharedAt(tid interp.ThreadID) (int, bool) {
	i := 0
	for i < len(s.shared) && s.shared[i].tid < tid {
		i++
	}
	return i, i < len(s.shared) && s.shared[i].tid == tid
}

// insertShared upserts one thread's read keeping shared sorted by tid.
// Thread counts are small (the interpreter models a handful of explicit
// threads), so the scan is linear.
func (s *shadowSlot) insertShared(re readEntry) {
	i, ok := s.sharedAt(re.tid)
	if ok {
		s.shared[i] = re
		return
	}
	s.shared = append(s.shared, readEntry{})
	copy(s.shared[i+1:], s.shared[i:])
	s.shared[i] = re
}

func (d *Detector) onWrite(m *interp.Machine, e *interp.Event) {
	d.spin.loud = true
	me := d.vc(e.TID)
	s := d.slot(e.Addr)
	cur := me.EpochOf(int(e.TID))
	if s.write == cur && s.read.IsZero() && len(s.shared) == 0 {
		// Same-epoch write with no stored reads: the previous write was
		// ours at this very epoch, so there is nothing to race with and
		// nothing to prune; only the last-write metadata moves.
		d.stats.FastpathHits++
		s.wMeta.set(e)
		return
	}
	if !s.write.IsZero() && s.write.TID() != int(e.TID) && !me.Observes(s.write) {
		d.report(m, s.wMeta, true, metaOf(e), true, e.Addr)
	}
	if len(s.shared) > 0 {
		// One pass over the stored reads: a read ordered before this
		// write is superseded (pruned, to bound state growth); an
		// unordered read from another thread races and stays stored.
		kept := s.shared[:0]
		for i := range s.shared {
			rd := s.shared[i]
			if me.HappensBefore(int(rd.tid), rd.tick) {
				continue
			}
			if rd.tid != e.TID {
				d.report(m, rd.meta, false, metaOf(e), true, e.Addr)
			}
			kept = append(kept, rd)
		}
		s.shared = kept // len 0 demotes the slot back to epoch mode
	} else if !s.read.IsZero() {
		if me.Observes(s.read) {
			s.read = 0
			s.rMeta = accessMeta{}
		} else if s.read.TID() != int(e.TID) {
			d.report(m, s.rMeta, false, metaOf(e), true, e.Addr)
		}
	}
	s.write = cur
	s.wMeta.set(e)
}

// mkAccess turns retained access metadata into a report-side Access,
// materializing the call stack — the only place stacks are built.
func (d *Detector) mkAccess(meta accessMeta, isWrite bool, addr int64) Access {
	d.stats.StackCaptures++
	return Access{
		TID: meta.tid, IsWrite: isWrite, Addr: addr, Val: meta.val,
		Instr: meta.instr, Stack: meta.sref.Materialize(), Step: meta.step,
	}
}

// report deduplicates by the unordered instruction pair. The string ID is
// never computed here; both orderings of the pointer pair index the same
// Report. Suppression is per pair too, so only a pair's first occurrence
// consults the annotations.
func (d *Detector) report(m *interp.Machine, prev accessMeta, prevW bool, cur accessMeta, curW bool, addr int64) {
	d.spin.loud = true
	key := [2]*ir.Instr{prev.instr, cur.instr}
	if r := d.byPair[key]; r != nil {
		r.Count++
		return
	}
	if d.Benign.suppresses(prev.instr, cur.instr) {
		return
	}
	r := &Report{
		Prev:     d.mkAccess(prev, prevW, addr),
		Cur:      d.mkAccess(cur, curW, addr),
		AddrName: m.Mem().NameFor(addr),
		Count:    1,
	}
	d.byPair[key] = r
	d.byPair[[2]*ir.Instr{cur.instr, prev.instr}] = r
	d.order = append(d.order, r)
}
