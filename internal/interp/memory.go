package interp

import (
	"fmt"
	"sort"

	"github.com/conanalysis/owl/internal/callstack"
	"github.com/conanalysis/owl/internal/ir"
)

// BlockKind classifies arena blocks.
type BlockKind int

// Arena block kinds.
const (
	BlockGlobal BlockKind = iota + 1
	BlockHeap
	BlockStack
)

func (k BlockKind) String() string {
	switch k {
	case BlockGlobal:
		return "global"
	case BlockHeap:
		return "heap"
	case BlockStack:
		return "stack"
	default:
		return fmt.Sprintf("BlockKind(%d)", int(k))
	}
}

// MemBlock is one allocation in the arena. Blocks are word granular: the
// IR's unit of memory is a 64-bit word, so "one byte" in the modelled C
// programs maps to one word here. Freed blocks keep their contents so
// use-after-free reads can be reported with the stale value, like a real
// allocator with poisoning would.
type MemBlock struct {
	ID    int
	Base  int64
	Size  int64
	Words []int64
	Kind  BlockKind
	Name  string // e.g. "@dying", "malloc@log_clean", "alloca@main"
	Freed bool

	// AllocStack and FreeStack record where the block was allocated and
	// freed, enriching use-after-free reports.
	AllocStack callstack.Stack
	FreeStack  callstack.Stack

	// cow marks Words as shared with a snapshot image: the next write
	// must copy the slice first. dirty marks the block as mutated since
	// the arena's last snapshot image of it was taken.
	cow   bool
	dirty bool
}

// Contains reports whether addr falls inside the block's range.
func (b *MemBlock) Contains(addr int64) bool {
	return addr >= b.Base && addr < b.Base+b.Size
}

// FaultKind classifies runtime memory/control faults. These are the
// consequences the attack oracles look for: a buffer overflow fault at the
// strcpy site is the Libsafe code injection; a null function pointer call
// is the Linux uselib attack; a use-after-free is the SSDB CVE.
type FaultKind int

// Fault kinds.
const (
	FaultNilDeref FaultKind = iota + 1
	FaultOOB
	FaultUseAfterFree
	FaultDoubleFree
	FaultBadFree
	FaultDivZero
	FaultNullFuncPtr
	FaultBadCall
	FaultAssert
	FaultAbort
	FaultUnknownIntrinsic
)

var faultNames = map[FaultKind]string{
	FaultNilDeref:         "null pointer dereference",
	FaultOOB:              "out-of-bounds access (buffer overflow)",
	FaultUseAfterFree:     "use after free",
	FaultDoubleFree:       "double free",
	FaultBadFree:          "free of non-heap pointer",
	FaultDivZero:          "division by zero",
	FaultNullFuncPtr:      "null function pointer call",
	FaultBadCall:          "call through non-function value",
	FaultAssert:           "assertion failure",
	FaultAbort:            "abort",
	FaultUnknownIntrinsic: "unknown function",
}

func (k FaultKind) String() string {
	if s, ok := faultNames[k]; ok {
		return s
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Fault is a runtime fault. It implements error.
type Fault struct {
	Kind  FaultKind
	TID   ThreadID
	Addr  int64
	Instr *ir.Instr
	Stack callstack.Stack
	Msg   string
	Step  int
}

func (f *Fault) Error() string {
	loc := "?"
	if f.Instr != nil {
		loc = f.Instr.Loc()
	}
	s := fmt.Sprintf("thread %d: %s at %s", f.TID, f.Kind, loc)
	if f.Msg != "" {
		s += ": " + f.Msg
	}
	return s
}

// Arena is the machine's word-addressed memory. Addresses are dense and
// allocated deterministically, so identical schedules produce identical
// addresses — the property OWL's replay-based verifiers depend on.
// Address 0 is NULL and never allocated; the first block starts at
// ArenaBase to keep small integers distinguishable from pointers in
// reports.
type Arena struct {
	blocks []*MemBlock // sorted by Base
	next   int64

	// Copy-on-write snapshot support. tracking turns on at the first
	// Snapshot call: from then on the arena maintains a per-block image
	// of the last snapshot and a list of blocks dirtied since, so the
	// next snapshot re-images only the dirty set (O(dirty), not
	// O(heap)). Until the first snapshot none of this costs anything on
	// the write path beyond two flag checks.
	tracking  bool
	images    []*blockImage // last-snapshot image per block ID; nil when stale
	dirtyIDs  []int         // block IDs whose image entry is stale
	cowCopied int64         // blocks ("pages") copied by copy-on-write writes
}

// blockImage is an immutable view of a MemBlock at snapshot time. words
// is shared with the live block until either side writes (the live side
// copies via wordsForWrite; restored machines start with cow set).
type blockImage struct {
	base, size int64
	kind       BlockKind
	name       string
	words      []int64
	freed      bool
	allocStack callstack.Stack
	freeStack  callstack.Stack
}

// ArenaSnap is a copy-on-write snapshot of an arena. It is immutable and
// can be restored any number of times.
type ArenaSnap struct {
	images []*blockImage
	next   int64
}

// ArenaBase is the lowest address the arena hands out. Addresses are
// dense above it, which lets flat (array-indexed) shadow memories map
// an address to a slot with one subtraction.
const ArenaBase = 0x10000

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{next: ArenaBase}
}

// Alloc allocates a block of size words.
func (a *Arena) Alloc(size int64, kind BlockKind, name string, stack callstack.Stack) *MemBlock {
	if size < 1 {
		size = 1
	}
	b := &MemBlock{
		ID:         len(a.blocks),
		Base:       a.next,
		Size:       size,
		Words:      make([]int64, size),
		Kind:       kind,
		Name:       name,
		AllocStack: stack.Clone(),
	}
	// Leave a one-word unaddressable gap between blocks so off-by-one
	// overflows fault instead of silently landing in the next block.
	a.next += size + 1
	a.blocks = append(a.blocks, b)
	if a.tracking {
		b.dirty = true
		a.images = append(a.images, nil)
		a.dirtyIDs = append(a.dirtyIDs, b.ID)
	}
	return b
}

// touch records that b's snapshot image (if any) is stale.
func (a *Arena) touch(b *MemBlock) {
	if a.tracking && !b.dirty {
		b.dirty = true
		a.images[b.ID] = nil
		a.dirtyIDs = append(a.dirtyIDs, b.ID)
	}
}

// wordsForWrite returns b.Words ready for mutation: if the slice is
// shared with a snapshot image it is copied first (copy-on-write), and
// the block is marked dirty for the next snapshot.
func (a *Arena) wordsForWrite(b *MemBlock) []int64 {
	if b.cow {
		w := make([]int64, len(b.Words))
		copy(w, b.Words)
		b.Words = w
		b.cow = false
		a.cowCopied++
	}
	a.touch(b)
	return b.Words
}

// Find returns the block containing addr, freed or not, or nil. Lookup is
// binary search over the base-sorted block list.
func (a *Arena) Find(addr int64) *MemBlock {
	i := sort.Search(len(a.blocks), func(i int) bool {
		return a.blocks[i].Base > addr
	})
	if i == 0 {
		return nil
	}
	b := a.blocks[i-1]
	if b.Contains(addr) {
		return b
	}
	return nil
}

// check validates an access of [addr, addr+n) and returns the block.
func (a *Arena) check(addr, n int64) (*MemBlock, *Fault) {
	if addr == 0 {
		return nil, &Fault{Kind: FaultNilDeref, Addr: addr}
	}
	b := a.Find(addr)
	if b == nil {
		return nil, &Fault{Kind: FaultOOB, Addr: addr,
			Msg: fmt.Sprintf("address 0x%x maps to no allocation", addr)}
	}
	if b.Freed {
		return b, &Fault{Kind: FaultUseAfterFree, Addr: addr,
			Msg: fmt.Sprintf("block %q freed earlier", b.Name)}
	}
	if addr+n > b.Base+b.Size {
		return b, &Fault{Kind: FaultOOB, Addr: addr,
			Msg: fmt.Sprintf("access of %d words at offset %d overflows block %q (size %d)",
				n, addr-b.Base, b.Name, b.Size)}
	}
	return b, nil
}

// Load reads one word. The returned fault (if any) has only Kind/Addr/Msg
// populated; the machine fills in thread context.
func (a *Arena) Load(addr int64) (int64, *Fault) {
	b, f := a.check(addr, 1)
	if f != nil {
		if f.Kind == FaultUseAfterFree && b != nil {
			// Report the stale value the UAF would have observed.
			f.Msg += fmt.Sprintf(" (stale value %d)", b.Words[addr-b.Base])
		}
		return 0, f
	}
	return b.Words[addr-b.Base], nil
}

// Store writes one word.
func (a *Arena) Store(addr, val int64) *Fault {
	b, f := a.check(addr, 1)
	if f != nil {
		return f
	}
	a.wordsForWrite(b)[addr-b.Base] = val
	return nil
}

// Peek reads a word without fault semantics (for verifier introspection
// and oracles); returns 0 for unmapped addresses, stale values for freed
// blocks.
func (a *Arena) Peek(addr int64) int64 {
	b := a.Find(addr)
	if b == nil {
		return 0
	}
	return b.Words[addr-b.Base]
}

// Poke writes a word without fault semantics (for test setup).
func (a *Arena) Poke(addr, val int64) bool {
	b := a.Find(addr)
	if b == nil {
		return false
	}
	a.wordsForWrite(b)[addr-b.Base] = val
	return true
}

// Free releases a heap block.
func (a *Arena) Free(addr int64, stack callstack.Stack) *Fault {
	if addr == 0 {
		return &Fault{Kind: FaultNilDeref, Addr: addr, Msg: "free(NULL)"}
	}
	b := a.Find(addr)
	if b == nil || addr != b.Base {
		return &Fault{Kind: FaultBadFree, Addr: addr}
	}
	if b.Kind != BlockHeap {
		return &Fault{Kind: FaultBadFree, Addr: addr,
			Msg: fmt.Sprintf("free of %s block %q", b.Kind, b.Name)}
	}
	if b.Freed {
		return &Fault{Kind: FaultDoubleFree, Addr: addr,
			Msg: fmt.Sprintf("block %q already freed", b.Name)}
	}
	b.Freed = true
	b.FreeStack = stack.Clone()
	a.touch(b)
	return nil
}

// Release marks a stack (alloca) block freed on scope exit. No fault
// semantics — the interpreter owns the block — but routed through the
// arena so snapshot dirty-tracking observes the mutation.
func (a *Arena) Release(b *MemBlock, stack callstack.Stack) {
	b.Freed = true
	b.FreeStack = stack
	a.touch(b)
}

// Blocks returns all blocks (live and freed), base-ordered.
func (a *Arena) Blocks() []*MemBlock { return a.blocks }

// Snapshot captures the arena as copy-on-write block images. The first
// snapshot images every block; subsequent snapshots re-image only blocks
// dirtied since the previous one. Word slices are shared between image
// and live block until either side writes.
func (a *Arena) Snapshot() *ArenaSnap {
	if !a.tracking {
		a.tracking = true
		a.images = make([]*blockImage, len(a.blocks))
		a.dirtyIDs = a.dirtyIDs[:0]
		for _, b := range a.blocks {
			b.dirty = true
			a.dirtyIDs = append(a.dirtyIDs, b.ID)
		}
	}
	for _, id := range a.dirtyIDs {
		b := a.blocks[id]
		b.cow = true
		b.dirty = false
		a.images[id] = &blockImage{
			base: b.Base, size: b.Size, kind: b.Kind, name: b.Name,
			words: b.Words, freed: b.Freed,
			allocStack: b.AllocStack, freeStack: b.FreeStack,
		}
	}
	a.dirtyIDs = a.dirtyIDs[:0]
	return &ArenaSnap{images: append([]*blockImage(nil), a.images...), next: a.next}
}

// restore materializes an arena from the snapshot into old, an arena
// of a finished run whose block headers and tables it reuses (nil
// allocates afresh). Every block shares words with its image
// (copy-on-write on both sides), and the restored arena starts fully
// imaged so an immediate re-snapshot is cheap.
func (s *ArenaSnap) restore(old *Arena) *Arena {
	a := old
	if a == nil {
		a = new(Arena)
	}
	oldBlocks := a.blocks
	blocks := oldBlocks[:0]
	*a = Arena{
		next:     s.next,
		tracking: true,
		images:   append(a.images[:0], s.images...),
		dirtyIDs: a.dirtyIDs[:0],
	}
	for id, img := range s.images {
		var b *MemBlock
		if id < len(oldBlocks) {
			b = oldBlocks[id]
		} else {
			b = new(MemBlock)
		}
		*b = MemBlock{
			ID: id, Base: img.base, Size: img.size, Words: img.words,
			Kind: img.kind, Name: img.name, Freed: img.freed,
			AllocStack: img.allocStack, FreeStack: img.freeStack,
			cow: true,
		}
		blocks = append(blocks, b)
	}
	// Drop what the finished run held past the snapshot's extent, so a
	// machine kept for reuse does not keep it alive.
	if len(oldBlocks) > len(blocks) {
		clear(oldBlocks[len(blocks):])
	}
	clear(a.images[len(a.images):cap(a.images)])
	a.blocks = blocks
	return a
}

// CowPagesCopied reports how many blocks were copied by copy-on-write
// writes since the arena was created (or restored).
func (a *Arena) CowPagesCopied() int64 { return a.cowCopied }

// Fingerprint hashes the arena's observable state (block geometry, freed
// flags, words) with FNV-1a: equal states hash equal. Used by the
// snapshot-fidelity tests to compare restored and from-scratch machines.
func (a *Arena) Fingerprint() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v int64) {
		h ^= uint64(v)
		h *= 1099511628211
	}
	for _, b := range a.blocks {
		mix(int64(b.ID))
		mix(b.Base)
		mix(b.Size)
		mix(int64(b.Kind))
		if b.Freed {
			mix(1)
		} else {
			mix(0)
		}
		for _, w := range b.Words {
			mix(w)
		}
	}
	mix(a.next)
	return h
}

// NameFor returns a human label for an address: "@global+off" or
// "heapname+off", falling back to hex.
func (a *Arena) NameFor(addr int64) string {
	b := a.Find(addr)
	if b == nil {
		return fmt.Sprintf("0x%x", addr)
	}
	off := addr - b.Base
	if off == 0 {
		return b.Name
	}
	return fmt.Sprintf("%s+%d", b.Name, off)
}
