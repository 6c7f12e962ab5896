package interp

import (
	"errors"
	"slices"
	"sort"

	"github.com/conanalysis/owl/internal/bytecode"
	"github.com/conanalysis/owl/internal/callstack"
	"github.com/conanalysis/owl/internal/ir"
)

// Snapshot is an immutable copy of a machine's execution state, taken
// between steps. Arena memory is captured copy-on-write (see
// Arena.Snapshot), so the cost of a snapshot is proportional to what
// changed since the previous one, not to the heap. A snapshot can be
// restored any number of times; each Restore yields an independent
// machine that continues from the captured point.
//
// Snapshots exist so schedule exploration can fork execution at a
// decision point instead of replaying the whole prefix from step 0 —
// the prefix-sharing optimization used by sched.SnapCache.
type Snapshot struct {
	cfg Config // scheduler/observer/breakpoint fields are not retained

	mem *ArenaSnap
	fs  *fsSnap

	step    int
	threads []*threadImage // shared with later snapshots while unchanged

	globals        map[string]int64 // immutable after New; shared
	funcIDs        map[string]int64
	funcs          []*ir.Func
	interns        map[string]int64
	locks          []lockEntry // sorted by addr: images are canonical
	intrinsicByRef map[int64]string

	inputPos  int
	uid       int64
	output    []string
	faults    []*Fault
	execLog   []string
	trace     []ThreadID
	forkCount int
	exited    bool
	exitCode  int
	rngState  uint64
	prevTID   ThreadID
	prevInstr *ir.Instr
}

type threadImage struct {
	id         ThreadID
	status     ThreadStatus
	suspended  bool
	waitAddr   int64
	joinTarget ThreadID
	sleepUntil int
	result     int64
	spawnInstr *ir.Instr
	frames     []frameImage
}

type frameImage struct {
	fn        *ir.Func
	block     *ir.Block
	pc        int
	prevBlock string
	// A tree frame's registers are regs; a compiled frame's are slots,
	// named by bc.SlotNames.
	regs      map[string]int64
	bc        *bytecode.FuncCode
	slots     []int64
	callInstr *ir.Instr
	allocas   []int // arena block IDs; remapped on restore
	chain     *callstack.Node
}

// eachReg calls fn with every register the frame image holds.
func (fi *frameImage) eachReg(fn func(name string, v int64)) {
	if fi.bc != nil {
		for s, name := range fi.bc.SlotNames {
			fn(name, fi.slots[s])
		}
		return
	}
	for k, v := range fi.regs {
		fn(k, v)
	}
}

type fileImage struct {
	name     string
	data     []int64 // clipped view; both sides copy on append
	readOnly bool
}

type fdImage struct {
	file   int // index into fsSnap.images, -1 for none
	closed bool
}

// fsSnap captures the FS preserving *File identity: a file reachable
// both by name and through stale descriptors (the Apache log-fd
// corruption scenario) restores as one object again.
type fsSnap struct {
	images []*fileImage
	names  map[string]int
	fds    []fdImage
}

func (f *FS) snapshot() *fsSnap {
	s := &fsSnap{names: make(map[string]int, len(f.files))}
	idx := make(map[*File]int, len(f.files)+len(f.fds))
	add := func(file *File) int {
		if file == nil {
			return -1
		}
		if i, ok := idx[file]; ok {
			return i
		}
		i := len(s.images)
		idx[file] = i
		s.images = append(s.images, &fileImage{
			name:     file.Name,
			data:     file.Data[:len(file.Data):len(file.Data)],
			readOnly: file.ReadOnly,
		})
		return i
	}
	for _, name := range f.Names() {
		s.names[name] = add(f.files[name])
	}
	for _, d := range f.fds {
		s.fds = append(s.fds, fdImage{file: add(d.file), closed: d.closed})
	}
	return s
}

func (s *fsSnap) restore() *FS {
	files := make([]*File, len(s.images))
	for i, img := range s.images {
		files[i] = &File{Name: img.name, Data: img.data, ReadOnly: img.readOnly}
	}
	f := &FS{files: make(map[string]*File, len(s.names))}
	for name, i := range s.names {
		f.files[name] = files[i]
	}
	f.fds = make([]*fd, len(s.fds))
	for i, d := range s.fds {
		nfd := &fd{closed: d.closed}
		if d.file >= 0 {
			nfd.file = files[d.file]
		}
		f.fds[i] = nfd
	}
	return f
}

func snapshotThread(t *Thread) *threadImage {
	ti := &threadImage{
		id: t.ID, status: t.Status, suspended: t.Suspended,
		waitAddr: t.WaitAddr, joinTarget: t.JoinTarget,
		sleepUntil: t.SleepUntil, result: t.Result, spawnInstr: t.SpawnInstr,
		frames: make([]frameImage, len(t.Frames)),
	}
	for i, fr := range t.Frames {
		fi := frameImage{
			fn: fr.Fn, block: fr.Block, pc: fr.PC, prevBlock: fr.PrevBlock,
			callInstr: fr.CallInstr, chain: fr.chain,
		}
		if fr.BC != nil {
			// Compiled frames snapshot in canonical (tree) form, so a
			// snapshot restores under either engine. The running engine
			// does not maintain Block/PrevBlock; both are derived here —
			// the current block from the pc, the previous block from the
			// last edge taken (a restored frame that has taken no edge yet
			// keeps the PrevBlock its image carried). pc: the word's
			// position within its block (phis included); sentinel words
			// map to end-of-block. The slots are kept as they are, named
			// by the function's slot names: a tree frame restored from
			// them gets every name, and extra zero-valued names a tree
			// frame wouldn't carry are harmless, a missing map entry
			// reads 0 either way.
			fi.block = fr.BC.BlockOfPC[fr.FPC]
			if fr.prevEdge >= 0 {
				fi.prevBlock = fr.BC.Edges[fr.prevEdge].Src.Name
			}
			if in := fr.BC.Instrs[fr.FPC]; in != nil {
				fi.pc = in.Index - fi.block.Instrs[0].Index
			} else {
				fi.pc = len(fi.block.Instrs)
			}
			fi.bc, fi.slots = fr.BC, slices.Clone(fr.Slots)
		} else {
			fi.regs = make(map[string]int64, len(fr.Regs))
			for k, v := range fr.Regs {
				fi.regs[k] = v
			}
		}
		if len(fr.Allocas) > 0 {
			fi.allocas = make([]int, len(fr.Allocas))
			for j, b := range fr.Allocas {
				fi.allocas[j] = b.ID
			}
		}
		ti.frames[i] = fi
	}
	return ti
}

// restore rebuilds the thread into old, a thread of a run the machine
// has finished with, reusing its frames and slot buffers (nil allocates
// afresh).
func (ti *threadImage) restore(m *Machine, old *Thread) *Thread {
	t := old
	if t == nil {
		t = new(Thread)
	}
	oldFrames := t.Frames
	frames := oldFrames[:0]
	*t = Thread{
		ID: ti.id, Status: ti.status, Suspended: ti.suspended,
		WaitAddr: ti.waitAddr, JoinTarget: ti.joinTarget,
		SleepUntil: ti.sleepUntil, Result: ti.result, SpawnInstr: ti.spawnInstr,
	}
	blocks := m.mem.Blocks()
	for i, fi := range ti.frames {
		var fr *Frame
		if i < len(oldFrames) {
			fr = oldFrames[i]
		} else {
			fr = new(Frame)
		}
		slots, allocas := fr.Slots[:0], fr.Allocas[:0]
		if m.prog != nil {
			// Rebuild a compiled frame from the canonical image: the
			// block-relative pc maps back to a word pc (end-of-block maps
			// to the sentinel), named registers map to slots (an image of
			// the same compiled function copies its slots). Names without
			// a slot can only be ones the function never reads; dropping
			// them is value-preserving.
			fc := m.prog.Funcs[fi.fn]
			if cap(slots) < fc.NumSlots {
				slots = make([]int64, fc.NumSlots)
			} else {
				slots = slots[:fc.NumSlots]
			}
			*fr = Frame{
				Fn: fi.fn, Block: fi.block, PrevBlock: fi.prevBlock,
				CallInstr: fi.callInstr, chain: fi.chain,
				BC: fc, code: fc.Code, Slots: slots,
				prevEdge: -1,
			}
			if fi.pc >= len(fi.block.Instrs) {
				fr.FPC = fc.EndPC(fi.block)
			} else {
				fr.FPC = fc.PCofInstr[fi.block.Instrs[fi.pc].Index]
			}
			if fi.bc == fc {
				copy(fr.Slots, fi.slots)
			} else {
				clear(fr.Slots)
				fi.eachReg(func(k string, v int64) {
					if s, ok := fc.SlotOf[k]; ok {
						fr.Slots[s] = v
					}
				})
			}
		} else {
			*fr = Frame{
				Fn: fi.fn, Block: fi.block, PC: fi.pc, PrevBlock: fi.prevBlock,
				CallInstr: fi.callInstr, chain: fi.chain,
				Regs: make(map[string]int64, len(fi.regs)+len(fi.slots)),
			}
			fi.eachReg(func(k string, v int64) { fr.Regs[k] = v })
		}
		if len(fi.allocas) > 0 {
			for _, id := range fi.allocas {
				allocas = append(allocas, blocks[id])
			}
			fr.Allocas = allocas
		}
		frames = append(frames, fr)
	}
	if len(oldFrames) > len(frames) {
		clear(oldFrames[len(frames):])
	}
	t.Frames = frames
	if n := len(t.Frames); n > 0 {
		t.top = t.Frames[n-1]
	}
	return t
}

// Schedule returns the thread choices the snapshotted run had taken. The
// slice is read-only: it shares the snapshotted machine's trace buffer.
func (s *Snapshot) Schedule() []ThreadID { return s.trace }

// Snapshot captures the machine's complete execution state between
// steps. The machine remains usable; its arena pages go copy-on-write
// and are copied back lazily as either side writes.
func (m *Machine) Snapshot() *Snapshot {
	s := &Snapshot{
		cfg:       m.cfg,
		mem:       m.mem.Snapshot(),
		fs:        m.fs.snapshot(),
		step:      m.step,
		threads:   make([]*threadImage, len(m.threads)),
		globals:   m.globals,
		funcIDs:   m.funcIDs,
		funcs:     m.funcs[:len(m.funcs):len(m.funcs)],
		interns:   m.interns,
		inputPos:  m.inputPos,
		uid:       m.uid,
		output:    m.output[:len(m.output):len(m.output)],
		faults:    m.faults[:len(m.faults):len(m.faults)],
		execLog:   m.execLog[:len(m.execLog):len(m.execLog)],
		trace:     m.flatTrace(),
		forkCount: m.forkCount,
		exited:    m.exited,
		exitCode:  m.exitCode,
		rngState:  m.rngState,
		prevTID:   m.prevTID,
		prevInstr: m.prevInstr,
	}
	// Scheduler, observers, and breakpoints belong to a particular run,
	// not to the captured state: Restore installs the new run's own.
	s.cfg.Sched = nil
	s.cfg.Observers = nil
	s.cfg.SwitchObservers = nil
	s.cfg.Breakpoint = nil
	s.locks = append([]lockEntry(nil), m.locks...)
	sort.Slice(s.locks, func(i, j int) bool { return s.locks[i].addr < s.locks[j].addr })
	// The name tables are shared, not copied: whichever side writes
	// first copies them (see ownNames).
	s.intrinsicByRef = m.intrinsicByRef
	m.namesShared = true
	if n := len(m.threads); len(m.images) < n {
		m.images = append(m.images, make([]*threadImage, n-len(m.images))...)
	}
	for i, t := range m.threads {
		if !t.imaged {
			m.images[i] = snapshotThread(t)
			t.imaged = true
		}
		s.threads[i] = m.images[i]
	}
	return s
}

// Restore builds a new machine continuing from the snapshot. cfg
// supplies the run-specific parts — Sched (required), Observers,
// SwitchObservers, Breakpoint, NoSchedule, and optionally MaxSteps (0
// keeps the snapshot's bound; the bound stays absolute, counted from
// step 0, so a restored run truncates exactly where a from-scratch run
// would).
// Module, Entry, Args, Inputs, and HaltOnFault come from the snapshot:
// they are part of the captured execution, not of the resuming run.
// The watched set starts empty.
func Restore(s *Snapshot, cfg Config) (*Machine, error) {
	return RestoreInto(nil, s, cfg)
}

// RestoreInto is Restore into m, a machine whose run the caller has
// finished with, reusing its threads, frames, slots, arena block
// headers, watch bitmaps and scheduling and trace buffers, so a run of
// many short resumes allocates little; m nil allocates a new machine.
// It returns m. What the earlier run handed out stays valid — Result
// and Snapshot views, faults, output — but its threads, frames and
// arena blocks are m's again: pointers to them must not be used after.
func RestoreInto(m *Machine, s *Snapshot, cfg Config) (*Machine, error) {
	if s == nil {
		return nil, ErrNilSnapshot
	}
	if cfg.Sched == nil {
		return nil, ErrNoScheduler
	}
	mcfg := s.cfg
	mcfg.Sched = cfg.Sched
	mcfg.Observers = cfg.Observers
	mcfg.SwitchObservers = cfg.SwitchObservers
	mcfg.Breakpoint = cfg.Breakpoint
	// A snapshot taken without a schedule cannot supply the trace
	// prefix, so its restores record none either.
	mcfg.NoSchedule = cfg.NoSchedule || s.cfg.NoSchedule
	if cfg.MaxSteps > 0 {
		mcfg.MaxSteps = cfg.MaxSteps
	}
	// Frames snapshot in canonical form, so the resuming run may choose
	// its own engine; by default it keeps the snapshot's.
	if cfg.Engine != "" {
		mcfg.Engine = cfg.Engine
	}
	prog, err := compileFor(mcfg.Engine, mcfg.Module)
	if err != nil {
		return nil, err
	}
	if m == nil {
		m = new(Machine)
	}
	// The finished run's buffers, for the new run to take over. A trace
	// that Result or Snapshot handed out is not reused, nor one longer
	// than reusedTraceCap (a machine kept for reuse would hold it), nor
	// are the watch bitmaps of another program.
	old := *m
	if old.traceShared || cap(old.trace) > reusedTraceCap {
		old.trace = nil
	}
	if old.prog == prog {
		old.watch.reset()
	} else {
		old.watch = watchSet{}
	}
	*m = Machine{
		prog:           prog,
		schedDirty:     true,
		rescan:         true,
		cfg:            mcfg,
		mod:            mcfg.Module,
		mem:            s.mem.restore(old.mem),
		fs:             s.fs.restore(),
		step:           s.step,
		globals:        s.globals,
		funcIDs:        s.funcIDs,
		funcs:          s.funcs,
		interns:        s.interns,
		intrinsicByRef: s.intrinsicByRef,
		namesShared:    true,
		inputPos:       s.inputPos,
		uid:            s.uid,
		output:         s.output,
		faults:         s.faults,
		execLog:        s.execLog,
		forkCount:      s.forkCount,
		exited:         s.exited,
		exitCode:       s.exitCode,
		rngState:       s.rngState,
		prevTID:        s.prevTID,
		prevInstr:      s.prevInstr,
		hasObs:         len(mcfg.Observers) > 0,
		hasSwitch:      len(mcfg.SwitchObservers) > 0,
		stackMemoStep:  -1,
		watch:          old.watch,
		runnableBuf:    old.runnableBuf[:0],
		runnableBits:   old.runnableBits[:0],
		schedChanged:   old.schedChanged[:0],
		sleepers:       old.sleepers[:0],
		argBuf:         old.argBuf[:0],
		moveBuf:        old.moveBuf[:0],
		globalBase:     old.globalBase,
		globalBlock:    old.globalBlock,
		locks:          append(old.locks[:0], s.locks...),
	}
	if !mcfg.NoSchedule {
		m.tracePrefix = s.trace
		m.trace = old.trace[:0]
	}
	for _, o := range mcfg.Observers {
		sp, declared := o.(StackPolicy)
		for k := EvRead; k < evKindCount; k++ {
			if !declared || sp.NeedsStack(k) {
				m.needStack[k] = true
			}
		}
	}
	if m.prog != nil {
		// The restored arena's block objects are not the snapshot
		// machine's; rebuild the ordinal-indexed tables against them.
		m.initGlobalTables()
	}
	m.threads = old.threads[:0]
	for i, ti := range s.threads {
		var t *Thread
		if i < len(old.threads) {
			t = old.threads[i]
		}
		m.threads = append(m.threads, ti.restore(m, t))
	}
	if len(old.threads) > len(m.threads) {
		clear(old.threads[len(m.threads):])
	}
	return m, nil
}

// reusedTraceCap bounds the schedule trace RestoreInto reuses, in
// entries: enough for a typical short resume, such as a race-verifier
// attempt, and small next to the snapshot it resumes.
const reusedTraceCap = 4096

// ErrNilSnapshot is returned by Restore for a nil snapshot.
var ErrNilSnapshot = errors.New("interp: nil snapshot")
