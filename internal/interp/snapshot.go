package interp

import (
	"errors"
	"sort"

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
	threads []threadImage

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
	regs      map[string]int64
	callInstr *ir.Instr
	allocas   []int // arena block IDs; remapped on restore
	chain     *callstack.Node
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

func snapshotThread(t *Thread) threadImage {
	ti := threadImage{
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
			// map to end-of-block. regs: the named slot values — extra
			// zero-valued names a tree frame wouldn't carry are harmless,
			// a missing map entry reads 0 either way.
			fi.block = fr.BC.BlockOfPC[fr.FPC]
			if fr.prevEdge >= 0 {
				fi.prevBlock = fr.BC.Edges[fr.prevEdge].Src.Name
			}
			if in := fr.BC.Instrs[fr.FPC]; in != nil {
				fi.pc = in.Index - fi.block.Instrs[0].Index
			} else {
				fi.pc = len(fi.block.Instrs)
			}
			fi.regs = make(map[string]int64, len(fr.Slots))
			for s, name := range fr.BC.SlotNames {
				fi.regs[name] = fr.Slots[s]
			}
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

func (ti threadImage) restore(m *Machine) *Thread {
	t := &Thread{
		ID: ti.id, Status: ti.status, Suspended: ti.suspended,
		WaitAddr: ti.waitAddr, JoinTarget: ti.joinTarget,
		SleepUntil: ti.sleepUntil, Result: ti.result, SpawnInstr: ti.spawnInstr,
		Frames: make([]*Frame, len(ti.frames)),
	}
	blocks := m.mem.Blocks()
	for i, fi := range ti.frames {
		var fr *Frame
		if m.prog != nil {
			// Rebuild a compiled frame from the canonical image: the
			// block-relative pc maps back to a word pc (end-of-block maps
			// to the sentinel), named registers map to slots. Names
			// without a slot can only be ones the function never reads;
			// dropping them is value-preserving.
			fc := m.prog.Funcs[fi.fn]
			fr = &Frame{
				Fn: fi.fn, Block: fi.block, PrevBlock: fi.prevBlock,
				CallInstr: fi.callInstr, chain: fi.chain,
				BC: fc, code: fc.Code, Slots: make([]int64, fc.NumSlots),
				prevEdge: -1,
			}
			if fi.pc >= len(fi.block.Instrs) {
				fr.FPC = fc.EndPC(fi.block)
			} else {
				fr.FPC = fc.PCofInstr[fi.block.Instrs[fi.pc].Index]
			}
			for k, v := range fi.regs {
				if s, ok := fc.SlotOf[k]; ok {
					fr.Slots[s] = v
				}
			}
		} else {
			fr = &Frame{
				Fn: fi.fn, Block: fi.block, PC: fi.pc, PrevBlock: fi.prevBlock,
				CallInstr: fi.callInstr, chain: fi.chain,
				Regs: make(map[string]int64, len(fi.regs)),
			}
			for k, v := range fi.regs {
				fr.Regs[k] = v
			}
		}
		if len(fi.allocas) > 0 {
			fr.Allocas = make([]*MemBlock, len(fi.allocas))
			for j, id := range fi.allocas {
				fr.Allocas[j] = blocks[id]
			}
		}
		t.Frames[i] = fr
	}
	if n := len(t.Frames); n > 0 {
		t.top = t.Frames[n-1]
	}
	return t
}

// Snapshot captures the machine's complete execution state between
// steps. The machine remains usable; its arena pages go copy-on-write
// and are copied back lazily as either side writes.
func (m *Machine) Snapshot() *Snapshot {
	s := &Snapshot{
		cfg:       m.cfg,
		mem:       m.mem.Snapshot(),
		fs:        m.fs.snapshot(),
		step:      m.step,
		threads:   make([]threadImage, len(m.threads)),
		globals:   m.globals,
		funcIDs:   copyMap(m.funcIDs),
		funcs:     m.funcs[:len(m.funcs):len(m.funcs)],
		interns:   copyMap(m.interns),
		inputPos:  m.inputPos,
		uid:       m.uid,
		output:    m.output[:len(m.output):len(m.output)],
		faults:    m.faults[:len(m.faults):len(m.faults)],
		execLog:   m.execLog[:len(m.execLog):len(m.execLog)],
		trace:     m.trace[:len(m.trace):len(m.trace)],
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
	if m.intrinsicByRef != nil {
		s.intrinsicByRef = make(map[int64]string, len(m.intrinsicByRef))
		for k, v := range m.intrinsicByRef {
			s.intrinsicByRef[k] = v
		}
	}
	for i, t := range m.threads {
		s.threads[i] = snapshotThread(t)
	}
	return s
}

func copyMap(src map[string]int64) map[string]int64 {
	dst := make(map[string]int64, len(src))
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

// Restore builds a new machine continuing from the snapshot. cfg
// supplies the run-specific parts — Sched (required), Observers,
// SwitchObservers, Breakpoint, and optionally MaxSteps (0 keeps the
// snapshot's bound; the bound stays absolute, counted from step 0, so a
// restored run truncates exactly where a from-scratch run would).
// Module, Entry, Args, Inputs, and HaltOnFault come from the snapshot:
// they are part of the captured execution, not of the resuming run.
func Restore(s *Snapshot, cfg Config) (*Machine, error) {
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
	m := &Machine{
		prog:           prog,
		schedDirty:     true,
		cfg:            mcfg,
		mod:            mcfg.Module,
		mem:            s.mem.restore(),
		fs:             s.fs.restore(),
		step:           s.step,
		globals:        s.globals,
		funcIDs:        copyMap(s.funcIDs),
		funcs:          s.funcs,
		interns:        copyMap(s.interns),
		inputPos:       s.inputPos,
		uid:            s.uid,
		output:         s.output,
		faults:         s.faults,
		execLog:        s.execLog,
		trace:          s.trace,
		forkCount:      s.forkCount,
		exited:         s.exited,
		exitCode:       s.exitCode,
		rngState:       s.rngState,
		prevTID:        s.prevTID,
		prevInstr:      s.prevInstr,
		hasObs:         len(mcfg.Observers) > 0,
		hasSwitch:      len(mcfg.SwitchObservers) > 0,
		stackMemoStep:  -1,
		intrinsicByRef: nil,
	}
	if s.intrinsicByRef != nil {
		m.intrinsicByRef = make(map[int64]string, len(s.intrinsicByRef))
		for k, v := range s.intrinsicByRef {
			m.intrinsicByRef[k] = v
		}
	}
	m.locks = append([]lockEntry(nil), s.locks...)
	for _, o := range mcfg.Observers {
		sp, declared := o.(StackPolicy)
		for k := EvRead; k < evKindCount; k++ {
			if !declared || sp.NeedsStack(k) {
				m.needStack[k] = true
			}
		}
	}
	if m.prog != nil {
		// The restored arena has fresh block objects; rebuild the
		// ordinal-indexed tables against it.
		m.initGlobalTables()
	}
	m.threads = make([]*Thread, len(s.threads))
	for i, ti := range s.threads {
		m.threads[i] = ti.restore(m)
	}
	// The live list is the threads not yet done/faulted: the original's
	// lazily-compacted list may still hold finished threads, but those
	// are filtered on every scheduling pass, so dropping them here is
	// behavior-preserving.
	for _, t := range m.threads {
		if t.Status != StatusDone && t.Status != StatusFaulted {
			m.live = append(m.live, t)
		}
	}
	return m, nil
}

// ErrNilSnapshot is returned by Restore for a nil snapshot.
var ErrNilSnapshot = errors.New("interp: nil snapshot")
