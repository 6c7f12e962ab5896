package bytecode

import (
	"fmt"
	"strings"
)

var opNames = [...]string{
	OpNop: "nop", OpMove: "move", OpLoad: "load", OpLoadG: "loadg",
	OpStore: "store", OpStoreG: "storeg", OpBin: "bin", OpCmp: "cmp",
	OpBr: "br", OpJmp: "jmp", OpRet: "ret", OpAlloca: "alloca",
	OpGep: "gep", OpCall: "call",
}

// OpName returns the mnemonic for an opcode.
func OpName(op byte) string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op%d", op)
}

func (fc *FuncCode) refString(ref uint16) string {
	idx := int(ref & RefIdxMask)
	switch ref >> RefTagShift {
	case RefSlot:
		if idx < len(fc.SlotNames) {
			return "%" + fc.SlotNames[idx]
		}
		return fmt.Sprintf("slot%d", idx)
	case RefConst:
		if idx < len(fc.Consts) {
			return fmt.Sprintf("#%d", fc.Consts[idx])
		}
		return fmt.Sprintf("const%d", idx)
	case RefGlobal:
		return fmt.Sprintf("g%d", idx)
	default:
		if idx < len(fc.Others) {
			return fmt.Sprintf("other(%s)", fc.Others[idx])
		}
		return fmt.Sprintf("other%d", idx)
	}
}

// Disasm renders the function's words one per line — a debugging and
// test aid, not a stable format.
func (fc *FuncCode) Disasm() string {
	var sb strings.Builder
	for pc, w := range fc.Code {
		op := byte(w)
		sub := int(w >> SubShift & SubMask)
		dst := int(w >> DstShift & DstMask)
		a := uint16(w >> AShift)
		b := uint16(w >> BShift)
		fmt.Fprintf(&sb, "%4d  %-7s", pc, OpName(op))
		switch op {
		case OpNop:
		case OpMove, OpLoad, OpAlloca:
			fmt.Fprintf(&sb, " s%d <- %s", dst, fc.refString(a))
		case OpLoadG:
			fmt.Fprintf(&sb, " s%d <- g%d", dst, a)
		case OpStore:
			fmt.Fprintf(&sb, " [%s] <- %s", fc.refString(b), fc.refString(a))
		case OpStoreG:
			fmt.Fprintf(&sb, " g%d <- %s", b, fc.refString(a))
		case OpBin, OpCmp, OpGep:
			fmt.Fprintf(&sb, ".%d s%d <- %s, %s", sub, dst, fc.refString(a), fc.refString(b))
		case OpBr:
			fmt.Fprintf(&sb, " %s ? e%d : e%d", fc.refString(a), dst, b)
		case OpJmp:
			fmt.Fprintf(&sb, " e%d", dst)
		case OpRet:
			if sub&1 != 0 {
				fmt.Fprintf(&sb, " %s", fc.refString(a))
			}
		case OpCall:
			cs := &fc.Calls[dst]
			fmt.Fprintf(&sb, " site%d kind=%d", dst, cs.Kind)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
