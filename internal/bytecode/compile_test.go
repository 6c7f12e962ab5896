package bytecode

import (
	"testing"

	"github.com/conanalysis/owl/internal/ir"
)

const src = `
global @g = 7
global @lock = 0

func @add(%a, %b) {
entry:
  %s = add %a, %b
  ret %s
}

func @main() {
entry:
  %x = const 3
  %y = add %x, 4
  %v = load @g
  %c = icmp lt %v, %y
  br %c, then, done
then:
  call @mutex_lock(@lock)
  store %y, @g
  call @mutex_unlock(@lock)
  jmp done
done:
  %p = phi [entry: %x], [then: %y]
  %r = call @add(%p, 1)
  %f = func @add
  %q = call %f(%r, 2)
  ret %q
}
`

func mustCompile(t *testing.T) (*ir.Module, *Program) {
	t.Helper()
	mod := ir.MustParse("bc_test.oir", src)
	p, err := Compile(mod)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return mod, p
}

func TestCompileMemoized(t *testing.T) {
	mod, p1 := mustCompile(t)
	p2, err := Compile(mod)
	if err != nil {
		t.Fatalf("second Compile: %v", err)
	}
	if p1 != p2 {
		t.Fatalf("Compile not memoized: %p vs %p", p1, p2)
	}
}

func TestCompileRequiresFrozen(t *testing.T) {
	mod := ir.NewModule("m")
	if _, err := Compile(mod); err == nil {
		t.Fatal("Compile of unfrozen module succeeded")
	}
}

func TestCompileShapes(t *testing.T) {
	mod, p := mustCompile(t)
	main := mod.Func("main")
	fc := p.Funcs[main]
	if fc == nil {
		t.Fatal("no FuncCode for @main")
	}
	if len(fc.Code) != len(fc.Instrs) {
		t.Fatalf("Code/Instrs length mismatch: %d vs %d", len(fc.Code), len(fc.Instrs))
	}
	// One sentinel per block, with a nil Instrs entry at each EndPC.
	for _, b := range main.Blocks {
		end := fc.EndPC(b)
		if byte(fc.Code[end]) != OpNop || fc.Instrs[end] != nil {
			t.Fatalf("block %s: EndPC %d is not a sentinel", b.Name, end)
		}
	}
	// Every non-sentinel word maps back to its instruction via PCofInstr.
	for pc, in := range fc.Instrs {
		if in == nil {
			continue
		}
		if got := fc.PCofInstr[in.Index]; got != pc {
			t.Fatalf("PCofInstr[%d] = %d, want %d", in.Index, got, pc)
		}
	}
	// Params get the leading slots.
	add := p.Funcs[mod.Func("add")]
	if len(add.ParamSlots) != 2 || add.ParamSlots[0] != 0 || add.ParamSlots[1] != 1 {
		t.Fatalf("ParamSlots = %v", add.ParamSlots)
	}
	// The direct call resolves, the indirect one carries the callee slot.
	var direct, indirect, intrin int
	for _, cs := range fc.Calls {
		switch cs.Kind {
		case CallFunc:
			direct++
			if cs.Fn != mod.Func("add") {
				t.Fatalf("direct call resolved to %v", cs.Fn)
			}
		case CallIndirect:
			indirect++
			if cs.Name != "f" {
				t.Fatalf("indirect callee name = %q", cs.Name)
			}
		case CallIntrinsic:
			intrin++
		}
	}
	if direct != 1 || indirect != 1 || intrin != 0 {
		t.Fatalf("call kinds: direct=%d indirect=%d intrinsic=%d", direct, indirect, intrin)
	}
	// The single-argument lock calls compile to the specialized kinds.
	var lock, unlock int
	for _, cs := range fc.Calls {
		switch cs.Kind {
		case CallLock:
			lock++
			if len(cs.Args) != 1 {
				t.Fatalf("lock call has %d resolved args", len(cs.Args))
			}
		case CallUnlock:
			unlock++
		}
	}
	if lock != 1 || unlock != 1 {
		t.Fatalf("call kinds: lock=%d unlock=%d", lock, unlock)
	}
	if fc.Disasm() == "" {
		t.Fatal("empty disassembly")
	}
}

func TestCompilePhiEdges(t *testing.T) {
	mod, p := mustCompile(t)
	fc := p.Funcs[mod.Func("main")]
	// Both edges into done carry exactly one move targeting %p.
	pSlot := fc.SlotOf["p"]
	var intoDone int
	for _, e := range fc.Edges {
		if e.Target.Name != "done" {
			continue
		}
		intoDone++
		if len(e.Moves) != 1 || int(e.Moves[0].Dst) != pSlot {
			t.Fatalf("edge into done: moves = %+v, want 1 move to slot %d", e.Moves, pSlot)
		}
	}
	if intoDone != 2 {
		t.Fatalf("edges into done = %d, want 2", intoDone)
	}
}
