package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses a module from its textual ".oir" representation. filename is
// used for positions and error messages.
//
// The grammar, line oriented (";" starts a comment anywhere):
//
//	module <name>
//	global @name [= <int>] | global @name [<size>] | global @name = "str"
//	func @name(%p1, %p2, ...) {
//	label:
//	  %r = const <int>
//	  %r = load <ptr>            ; ptr: %reg or @global
//	  store <val>, <ptr>
//	  %r = add|sub|mul|div|rem|and|or|xor|shl|shr <a>, <b>
//	  %r = icmp eq|ne|lt|le|gt|ge|ult|ule|ugt|uge <a>, <b>
//	  br <cond>, <then>, <else>
//	  jmp <label>
//	  %r = phi [label: val], [label: val], ...
//	  [%r =] call <callee>(<args...>)   ; callee: @name or %reg
//	  ret [<val>]
//	  %r = alloca <n>
//	  %r = gep <base>, <off>
//	  %r = addr @global
//	  %r = func @name
//	}
func Parse(filename, src string) (*Module, error) {
	p := &parser{file: filename, lines: strings.Split(src, "\n")}
	m, err := p.parse()
	if err != nil {
		return nil, err
	}
	if err := m.Freeze(); err != nil {
		return nil, fmt.Errorf("%s: %w", filename, err)
	}
	return m, nil
}

// MustParse is Parse but panics on error; for embedded workload sources.
// The panic value is a typed *Error, so Try (or any recover boundary)
// can turn it back into a returned error.
func MustParse(filename, src string) *Module {
	m, err := Parse(filename, src)
	if err != nil {
		panic(&Error{Op: "parse", Name: filename, Err: err})
	}
	return m
}

type parser struct {
	file  string
	lines []string
	ln    int // 0-based index of current line
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("%s:%d: %s", p.file, p.ln+1, fmt.Sprintf(format, args...))
}

func stripComment(s string) string {
	inStr := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inStr = !inStr
		case ';':
			if !inStr {
				return s[:i]
			}
		}
	}
	return s
}

func (p *parser) parse() (*Module, error) {
	m := NewModule(strings.TrimSuffix(p.file, ".oir"))
	for p.ln = 0; p.ln < len(p.lines); p.ln++ {
		line := strings.TrimSpace(stripComment(p.lines[p.ln]))
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "module "):
			m.Name = strings.TrimSpace(strings.TrimPrefix(line, "module "))
		case strings.HasPrefix(line, "global "):
			g, err := p.parseGlobal(strings.TrimPrefix(line, "global "))
			if err != nil {
				return nil, err
			}
			if err := m.AddGlobal(g); err != nil {
				return nil, p.errf("%v", err)
			}
		case strings.HasPrefix(line, "func "):
			f, err := p.parseFunc(line)
			if err != nil {
				return nil, err
			}
			if err := m.AddFunc(f); err != nil {
				return nil, p.errf("%v", err)
			}
		default:
			return nil, p.errf("unexpected top-level line %q", line)
		}
	}
	return m, nil
}

func (p *parser) parseGlobal(rest string) (*Global, error) {
	rest = strings.TrimSpace(rest)
	if !strings.HasPrefix(rest, "@") {
		return nil, p.errf("global name must start with @: %q", rest)
	}
	rest = rest[1:]
	// Forms: "name", "name = 42", "name [64]", `name = "str"`.
	i := strings.IndexAny(rest, " \t=[")
	if i < 0 {
		i = len(rest)
	}
	if i == 0 {
		return nil, p.errf("global name is empty: %q", "@"+rest)
	}
	name := rest[:i]
	rest = strings.TrimSpace(rest[i:])
	g := &Global{Name: name, Size: 1}
	switch {
	case rest == "":
		return g, nil
	case strings.HasPrefix(rest, "["):
		end := strings.Index(rest, "]")
		if end < 0 {
			return nil, p.errf("global @%s: unterminated array size", name)
		}
		n, err := strconv.Atoi(strings.TrimSpace(rest[1:end]))
		if err != nil || n <= 0 {
			return nil, p.errf("global @%s: bad array size %q", name, rest[1:end])
		}
		g.Size = n
		return g, nil
	case strings.HasPrefix(rest, "="):
		val := strings.TrimSpace(rest[1:])
		if strings.HasPrefix(val, `"`) {
			s, err := strconv.Unquote(val)
			if err != nil {
				return nil, p.errf("global @%s: bad string literal: %v", name, err)
			}
			g.InitWords = StringToWords(s)
			g.Size = len(g.InitWords)
			if g.Size > 0 {
				g.Init = g.InitWords[0]
			}
			return g, nil
		}
		v, err := strconv.ParseInt(val, 0, 64)
		if err != nil {
			return nil, p.errf("global @%s: bad initializer %q", name, val)
		}
		g.Init = v
		return g, nil
	default:
		return nil, p.errf("global @%s: unexpected trailing %q", name, rest)
	}
}

// StringToWords converts a Go string into one word per byte plus a NUL
// terminator — the memory representation string intrinsics (strcpy, print)
// operate on.
func StringToWords(s string) []int64 {
	w := make([]int64, 0, len(s)+1)
	for i := 0; i < len(s); i++ {
		w = append(w, int64(s[i]))
	}
	return append(w, 0)
}

// WordsToString converts a NUL-terminated word sequence back to a string.
func WordsToString(w []int64) string {
	var b strings.Builder
	for _, c := range w {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

func (p *parser) parseFunc(line string) (*Func, error) {
	// func @name(%a, %b) {
	rest := strings.TrimSpace(strings.TrimPrefix(line, "func "))
	if !strings.HasSuffix(rest, "{") {
		return nil, p.errf("func header must end with '{': %q", line)
	}
	rest = strings.TrimSpace(strings.TrimSuffix(rest, "{"))
	open := strings.Index(rest, "(")
	closeP := strings.LastIndex(rest, ")")
	if !strings.HasPrefix(rest, "@") || open < 0 || closeP < open {
		return nil, p.errf("bad func header %q", line)
	}
	f := &Func{Name: rest[1:open]}
	for _, prm := range splitArgs(rest[open+1 : closeP]) {
		prm = strings.TrimSpace(prm)
		if prm == "" {
			continue
		}
		if !strings.HasPrefix(prm, "%") {
			return nil, p.errf("func @%s: parameter %q must start with %%", f.Name, prm)
		}
		f.Params = append(f.Params, prm[1:])
	}

	var cur *Block
	for p.ln++; p.ln < len(p.lines); p.ln++ {
		l := strings.TrimSpace(stripComment(p.lines[p.ln]))
		if l == "" {
			continue
		}
		if l == "}" {
			if len(f.Blocks) == 0 {
				return nil, p.errf("func @%s: no blocks", f.Name)
			}
			return f, nil
		}
		if strings.HasSuffix(l, ":") && !strings.Contains(l, " ") {
			cur = &Block{Name: strings.TrimSuffix(l, ":")}
			f.Blocks = append(f.Blocks, cur)
			continue
		}
		if cur == nil {
			return nil, p.errf("func @%s: instruction before first block label", f.Name)
		}
		in, err := p.parseInstr(l)
		if err != nil {
			return nil, err
		}
		in.Pos = Pos{File: p.file, Line: p.ln + 1}
		cur.Instrs = append(cur.Instrs, in)
	}
	return nil, p.errf("func @%s: missing closing '}'", f.Name)
}

// splitArgs splits a comma-separated list, respecting string literals and
// brackets (for phi edges).
func splitArgs(s string) []string {
	var out []string
	depth, inStr, start := 0, false, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inStr = !inStr
		case '[', '(':
			if !inStr {
				depth++
			}
		case ']', ')':
			if !inStr {
				depth--
			}
		case ',':
			if !inStr && depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if strings.TrimSpace(s[start:]) != "" || len(out) > 0 {
		out = append(out, s[start:])
	}
	return out
}

func (p *parser) parseOperand(tok string) (Operand, error) {
	tok = strings.TrimSpace(tok)
	switch {
	case tok == "":
		return Operand{}, p.errf("empty operand")
	case strings.HasPrefix(tok, "%"):
		return RegOp(tok[1:]), nil
	case strings.HasPrefix(tok, "@"):
		return GlobalOp(tok[1:]), nil
	case strings.HasPrefix(tok, `"`):
		s, err := strconv.Unquote(tok)
		if err != nil {
			return Operand{}, p.errf("bad string literal %s: %v", tok, err)
		}
		return StringOp(s), nil
	default:
		v, err := strconv.ParseInt(tok, 0, 64)
		if err != nil {
			return Operand{}, p.errf("bad operand %q", tok)
		}
		return ConstOp(v), nil
	}
}

func (p *parser) parseInstr(l string) (*Instr, error) {
	dst := ""
	if strings.HasPrefix(l, "%") {
		eq := strings.Index(l, "=")
		if eq < 0 {
			return nil, p.errf("expected '=' after destination register in %q", l)
		}
		d := strings.TrimSpace(l[:eq])
		dst = strings.TrimPrefix(d, "%")
		l = strings.TrimSpace(l[eq+1:])
	}
	op, rest, _ := strings.Cut(l, " ")
	rest = strings.TrimSpace(rest)

	mk := func(o Op, args ...Operand) *Instr {
		return &Instr{Op: o, Dst: dst, Args: args}
	}
	one := func() (Operand, error) { return p.parseOperand(rest) }
	two := func() (Operand, Operand, error) {
		parts := splitArgs(rest)
		if len(parts) != 2 {
			return Operand{}, Operand{}, p.errf("%s expects 2 operands: %q", op, l)
		}
		a, err := p.parseOperand(parts[0])
		if err != nil {
			return Operand{}, Operand{}, err
		}
		b, err := p.parseOperand(parts[1])
		return a, b, err
	}

	if bk, ok := BinKindFromString(op); ok {
		a, b, err := two()
		if err != nil {
			return nil, err
		}
		in := mk(OpBin, a, b)
		in.Bin = bk
		return in, nil
	}

	switch op {
	case "const":
		a, err := one()
		if err != nil {
			return nil, err
		}
		return mk(OpConst, a), nil
	case "load":
		a, err := one()
		if err != nil {
			return nil, err
		}
		return mk(OpLoad, a), nil
	case "store":
		a, b, err := two()
		if err != nil {
			return nil, err
		}
		return mk(OpStore, a, b), nil
	case "icmp":
		predTok, args, ok := strings.Cut(rest, " ")
		if !ok {
			return nil, p.errf("icmp needs predicate and operands: %q", l)
		}
		pred, okP := CmpPredFromString(strings.TrimSpace(predTok))
		if !okP {
			return nil, p.errf("unknown icmp predicate %q", predTok)
		}
		parts := splitArgs(args)
		if len(parts) != 2 {
			return nil, p.errf("icmp expects 2 operands: %q", l)
		}
		a, err := p.parseOperand(parts[0])
		if err != nil {
			return nil, err
		}
		b, err := p.parseOperand(parts[1])
		if err != nil {
			return nil, err
		}
		in := mk(OpCmp, a, b)
		in.Pred = pred
		return in, nil
	case "br":
		parts := splitArgs(rest)
		if len(parts) != 3 {
			return nil, p.errf("br expects cond, then, else: %q", l)
		}
		c, err := p.parseOperand(parts[0])
		if err != nil {
			return nil, err
		}
		return mk(OpBr, c,
			LabelOp(strings.TrimSpace(parts[1])),
			LabelOp(strings.TrimSpace(parts[2]))), nil
	case "jmp":
		return mk(OpJmp, LabelOp(strings.TrimSpace(rest))), nil
	case "phi":
		in := &Instr{Op: OpPhi, Dst: dst}
		for _, edge := range splitArgs(rest) {
			edge = strings.TrimSpace(edge)
			if !strings.HasPrefix(edge, "[") || !strings.HasSuffix(edge, "]") {
				return nil, p.errf("phi edge must be [label: val]: %q", edge)
			}
			body := edge[1 : len(edge)-1]
			lbl, val, ok := strings.Cut(body, ":")
			if !ok {
				return nil, p.errf("phi edge must be [label: val]: %q", edge)
			}
			v, err := p.parseOperand(val)
			if err != nil {
				return nil, err
			}
			in.Phis = append(in.Phis, PhiEdge{Block: strings.TrimSpace(lbl), Val: v})
		}
		if len(in.Phis) == 0 {
			return nil, p.errf("phi with no edges: %q", l)
		}
		return in, nil
	case "call":
		open := strings.Index(rest, "(")
		if open < 0 || !strings.HasSuffix(rest, ")") {
			return nil, p.errf("call needs (args): %q", l)
		}
		calleeTok := strings.TrimSpace(rest[:open])
		var callee Operand
		switch {
		case strings.HasPrefix(calleeTok, "@"):
			callee = FuncOp(calleeTok[1:])
		case strings.HasPrefix(calleeTok, "%"):
			callee = RegOp(calleeTok[1:])
		default:
			return nil, p.errf("call callee must be @name or %%reg: %q", calleeTok)
		}
		args := []Operand{callee}
		for _, a := range splitArgs(rest[open+1 : len(rest)-1]) {
			if strings.TrimSpace(a) == "" {
				continue
			}
			o, err := p.parseOperand(a)
			if err != nil {
				return nil, err
			}
			args = append(args, o)
		}
		return &Instr{Op: OpCall, Dst: dst, Args: args}, nil
	case "ret":
		if rest == "" {
			return mk(OpRet), nil
		}
		a, err := one()
		if err != nil {
			return nil, err
		}
		return mk(OpRet, a), nil
	case "alloca":
		a, err := one()
		if err != nil {
			return nil, err
		}
		return mk(OpAlloca, a), nil
	case "gep":
		a, b, err := two()
		if err != nil {
			return nil, err
		}
		return mk(OpGep, a, b), nil
	case "addr":
		a, err := one()
		if err != nil {
			return nil, err
		}
		if a.Kind != OperandGlobal {
			return nil, p.errf("addr expects a global: %q", l)
		}
		return mk(OpAddrOf, a), nil
	case "func":
		a, err := one()
		if err != nil {
			return nil, err
		}
		if a.Kind != OperandGlobal {
			return nil, p.errf("func expects @name: %q", l)
		}
		return mk(OpFunc, FuncOp(a.Name)), nil
	default:
		return nil, p.errf("unknown opcode %q", op)
	}
}
