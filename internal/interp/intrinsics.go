package interp

import (
	"fmt"

	"github.com/conanalysis/owl/internal/ir"
)

// intrinsics is the runtime's "libc": thread and lock primitives, heap and
// string memory operations, the privilege / file / process operations that
// form the paper's five vulnerable-site categories (§3.2), program input,
// and IO timing. Workload models call these exactly where the modelled C
// programs called their counterparts.
var intrinsics = map[string]bool{
	"spawn": true, "join": true, "thread_id": true, "yield": true,
	"io_delay": true, "sleep": true,
	"mutex_lock": true, "mutex_unlock": true,
	"malloc": true, "free": true, "memcpy": true, "memset": true,
	"strcpy": true, "strlen": true,
	"setuid": true, "getuid": true,
	"open": true, "close": true, "write": true, "access": true,
	"exec": true, "fork": true,
	"print": true, "print_str": true,
	"input": true, "input_avail": true, "rand": true,
	"exit": true, "abort": true, "assert": true,
}

// isIntrinsic reports whether name is a runtime intrinsic.
func isIntrinsic(name string) bool { return intrinsics[name] }

// IsIntrinsic exposes the intrinsic table to analyses (the vulnerability
// analyzer must know which callees are "external" — paper §6.1 only
// recurses into internal functions).
func IsIntrinsic(name string) bool { return isIntrinsic(name) }

// callIntrinsic executes an intrinsic call for thread t. On success it
// stores the result (if the call has a destination) and advances the PC;
// blocking intrinsics (mutex_lock, join) leave the PC so the call retries
// when the thread wakes.
func (m *Machine) callIntrinsic(t *Thread, in *ir.Instr, name string) {
	// Reuse the machine's scratch buffer: no intrinsic re-enters argument
	// evaluation, and the only consumer that outlives this call (spawn's
	// newThread) copies the values out immediately.
	args := m.argBuf[:0]
	for _, a := range in.CallArgs() {
		v, f := m.eval(t, a)
		if f != nil {
			m.fault(t, in, f)
			return
		}
		args = append(args, v)
	}
	m.argBuf = args[:0]
	m.intrinsic(t, in, name, args, -1)
}

// intrinsic is the engine-shared intrinsic body: args are already
// evaluated, and dstSlot is the compiled frame's destination slot (-1
// for none; ignored by tree frames, which use in.Dst).
func (m *Machine) intrinsic(t *Thread, in *ir.Instr, name string, args []int64, dstSlot int) {
	fr := t.Top()
	arg := func(i int) int64 {
		if i < len(args) {
			return args[i]
		}
		return 0
	}
	done := func(ret int64) {
		if fr.Slots != nil {
			if dstSlot >= 0 {
				fr.Slots[dstSlot] = ret
			}
			fr.FPC++
		} else {
			if in.Dst != "" {
				fr.Regs[in.Dst] = ret
			}
			fr.PC++
		}
	}

	switch name {
	case "spawn":
		fn := m.FuncForRef(arg(0))
		if fn == nil {
			m.fault(t, in, &Fault{Kind: FaultBadCall, Addr: arg(0),
				Msg: "spawn: first argument is not a function reference"})
			return
		}
		child := m.newThread(fn, args[1:], in)
		if m.hasObs {
			m.emit(EvSpawn, t.ID, 0, 0, int64(child.ID), in)
		}
		done(int64(child.ID))

	case "join":
		target := m.Thread(ThreadID(arg(0)))
		if target == nil {
			m.fault(t, in, &Fault{Kind: FaultBadCall,
				Msg: fmt.Sprintf("join: no thread %d", arg(0))})
			return
		}
		switch target.Status {
		case StatusDone, StatusFaulted:
			if m.hasObs {
				m.emit(EvJoin, t.ID, 0, 0, int64(target.ID), in)
			}
			done(target.Result)
		default:
			t.Status = StatusBlockedJoin
			t.JoinTarget = target.ID
			m.markSched(t)
		}

	case "thread_id":
		done(int64(t.ID))

	case "yield":
		done(0)

	case "io_delay", "sleep":
		// Models input-controllable IO timing (§3.1, Finding III: crafted
		// input timings widen the vulnerable window).
		n := arg(0)
		if n < 0 {
			n = 0
		}
		t.Status = StatusSleeping
		t.SleepUntil = m.step + 1 + int(n)
		m.markSched(t)
		m.pushSleeper(t)
		done(0)

	case "mutex_lock":
		addr := arg(0)
		if owner, held := m.lockOwner(addr); held {
			if owner == t.ID {
				m.fault(t, in, &Fault{Kind: FaultAbort, Addr: addr,
					Msg: "recursive lock of non-recursive mutex (self deadlock)"})
				return
			}
			t.Status = StatusBlockedMutex
			t.WaitAddr = addr
			m.markSched(t)
			return // retry when woken
		}
		m.lockAcquire(addr, t.ID)
		if m.hasObs {
			m.emit(EvAcquire, t.ID, addr, 0, 0, in)
		}
		done(0)

	case "mutex_unlock":
		addr := arg(0)
		if owner, held := m.lockOwner(addr); held && owner == t.ID {
			m.lockRelease(addr)
			if m.hasObs {
				m.emit(EvRelease, t.ID, addr, 0, 0, in)
			}
			for _, w := range m.threads {
				if w.Status == StatusBlockedMutex && w.WaitAddr == addr {
					w.Status = StatusRunnable
					m.markSched(w)
				}
			}
		}
		done(0)

	case "malloc":
		b := m.mem.Alloc(arg(0), BlockHeap,
			fmt.Sprintf("malloc@%s:%d", fr.Fn.Name, in.Pos.Line), t.Stack())
		if m.hasObs {
			m.emit(EvAlloc, t.ID, b.Base, 0, arg(0), in)
		}
		done(b.Base)

	case "free":
		if f := m.mem.Free(arg(0), t.Stack()); f != nil {
			f.Addr = arg(0)
			m.fault(t, in, f)
			return
		}
		if m.hasObs {
			m.emit(EvFree, t.ID, arg(0), 0, 0, in)
		}
		done(0)

	case "memcpy":
		dst, src, n := arg(0), arg(1), arg(2)
		for i := int64(0); i < n; i++ {
			v, f := m.mem.Load(src + i)
			if f != nil {
				f.Addr = src + i
				m.fault(t, in, f)
				return
			}
			if m.hasObs {
				m.emit(EvRead, t.ID, src+i, v, 0, in)
			}
			if f := m.mem.Store(dst+i, v); f != nil {
				f.Addr = dst + i
				m.fault(t, in, f)
				return
			}
			if m.hasObs {
				m.emit(EvWrite, t.ID, dst+i, v, 0, in)
			}
		}
		done(dst)

	case "memset":
		p, v, n := arg(0), arg(1), arg(2)
		for i := int64(0); i < n; i++ {
			if f := m.mem.Store(p+i, v); f != nil {
				f.Addr = p + i
				m.fault(t, in, f)
				return
			}
			if m.hasObs {
				m.emit(EvWrite, t.ID, p+i, v, 0, in)
			}
		}
		done(p)

	case "strcpy":
		dst, src := arg(0), arg(1)
		for i := int64(0); ; i++ {
			v, f := m.mem.Load(src + i)
			if f != nil {
				f.Addr = src + i
				m.fault(t, in, f)
				return
			}
			if f := m.mem.Store(dst+i, v); f != nil {
				f.Addr = dst + i
				m.fault(t, in, f)
				return
			}
			if m.hasObs {
				m.emit(EvWrite, t.ID, dst+i, v, 0, in)
			}
			if v == 0 {
				break
			}
		}
		done(dst)

	case "strlen":
		p := arg(0)
		n := int64(0)
		for {
			v, f := m.mem.Load(p + n)
			if f != nil {
				f.Addr = p + n
				m.fault(t, in, f)
				return
			}
			if v == 0 {
				break
			}
			n++
		}
		done(n)

	case "setuid":
		m.uid = arg(0)
		done(0)

	case "getuid":
		done(m.uid)

	case "open":
		s, f := m.readString(arg(0))
		if f != nil {
			m.fault(t, in, f)
			return
		}
		done(m.fs.Open(s))

	case "close":
		m.fs.Close(arg(0))
		done(0)

	case "write":
		fd, p, n := arg(0), arg(1), arg(2)
		words, f := m.readWords(p, n)
		if f != nil {
			m.fault(t, in, f)
			return
		}
		done(m.fs.Write(fd, words))

	case "access":
		s, f := m.readString(arg(0))
		if f != nil {
			m.fault(t, in, f)
			return
		}
		done(m.fs.Access(s))

	case "exec":
		s, f := m.readString(arg(0))
		if f != nil {
			m.fault(t, in, f)
			return
		}
		m.execLog = append(m.execLog, s)
		done(0)

	case "fork":
		m.forkCount++
		done(int64(1000 + m.forkCount))

	case "print":
		m.output = append(m.output, fmt.Sprintf("%d", arg(0)))
		done(0)

	case "print_str":
		s, f := m.readString(arg(0))
		if f != nil {
			m.fault(t, in, f)
			return
		}
		m.output = append(m.output, s)
		done(0)

	case "input":
		v := int64(0)
		if m.inputPos < len(m.cfg.Inputs) {
			v = m.cfg.Inputs[m.inputPos]
			m.inputPos++
		}
		done(v)

	case "input_avail":
		done(int64(len(m.cfg.Inputs) - m.inputPos))

	case "rand":
		// xorshift64*: deterministic per machine, independent of schedule
		// only if call order is fixed; workloads use it for benign noise.
		m.rngState ^= m.rngState >> 12
		m.rngState ^= m.rngState << 25
		m.rngState ^= m.rngState >> 27
		v := int64(m.rngState * 0x2545f4914f6cdd1d >> 1)
		if n := arg(0); n > 0 {
			v %= n
		}
		done(v)

	case "exit":
		m.exited = true
		m.exitCode = int(arg(0))
		m.schedDirty, m.rescan = true, true
		for _, th := range m.threads {
			if th.Status != StatusFaulted {
				th.Status = StatusDone
			}
			th.imaged = false
		}

	case "abort":
		m.fault(t, in, &Fault{Kind: FaultAbort})

	case "assert":
		if arg(0) == 0 {
			m.fault(t, in, &Fault{Kind: FaultAssert})
			return
		}
		done(0)

	default:
		m.fault(t, in, &Fault{Kind: FaultUnknownIntrinsic, Msg: "@" + name})
	}
}

// readWords reads n words starting at p with bounds checking but without
// emitting access events (used by write()/print-style intrinsics whose
// reads are not interesting to the race detector).
func (m *Machine) readWords(p, n int64) ([]int64, *Fault) {
	out := make([]int64, 0, n)
	for i := int64(0); i < n; i++ {
		v, f := m.mem.Load(p + i)
		if f != nil {
			f.Addr = p + i
			return nil, f
		}
		out = append(out, v)
	}
	return out, nil
}

// readString reads a NUL-terminated string at p (no events).
func (m *Machine) readString(p int64) (string, *Fault) {
	var words []int64
	for i := int64(0); ; i++ {
		v, f := m.mem.Load(p + i)
		if f != nil {
			f.Addr = p + i
			return "", f
		}
		words = append(words, v)
		if v == 0 {
			break
		}
	}
	return ir.WordsToString(words), nil
}

// ExecLog returns the paths passed to exec() during the run — the
// process-forking vulnerable-site consequence.
func (m *Machine) ExecLog() []string { return m.execLog }
