// Package raceverify implements OWL's dynamic race verifier (§5.2). It
// re-runs the program with thread-specific breakpoints at the two racing
// instructions of a report; when two different threads are suspended at
// the pair and their pending accesses target the same address with at
// least one write, the race has been caught "in the racing moment". The
// verifier then emits security hints — the racing values, the variable's
// name, and whether a NULL-pointer dereference or uninitialized read could
// follow — that feed the static vulnerability analyzer.
//
// The paper builds this on LLDB; here the interpreter's deterministic
// thread suspension provides the same semantics. §5.2 names two kinds of
// livelock. When all remaining threads block on a suspended one, the
// verifier does what the paper describes: it temporarily releases one
// of the triggered breakpoints. When the others spin without the second
// thread arriving, the attempt ends as soon as a proof shows that no
// thread can ever reach the partner instruction (see holdProof), and at
// the latest when HoldBudget runs out.
package raceverify

import (
	"fmt"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/race"
	"github.com/conanalysis/owl/internal/sched"
)

// MachineFactory builds a fresh machine for one verification run, wired to
// the given scheduler and breakpoint. The OWL pipeline binds this to the
// workload's module, inputs, and arguments.
type MachineFactory func(s interp.Scheduler, bp interp.BreakpointFunc) (*interp.Machine, error)

// Hint is the verifier's output for one report: verification status plus
// the §5.2 security hints.
type Hint struct {
	Report   *race.Report
	Verified bool
	// Attempts is the number of runs used.
	Attempts int

	// ReadVal is the value the read is about to observe; WriteVal the
	// value the write is about to store.
	ReadVal, WriteVal int64
	// VarName names the racing memory at the racing moment.
	VarName string
	// WritesNull is set when the racing write stores 0 into memory that
	// the reading side dereferences — the "NULL pointer dereference can be
	// triggered" hint.
	WritesNull bool
	// ReadsUninitialized is set when the read observes memory never
	// written on this run (still holding its initial zero).
	ReadsUninitialized bool
	// Schedule is the witness schedule up to the racing moment; replaying
	// it steers later verification runs.
	Schedule []interp.ThreadID
}

func (h *Hint) String() string {
	if !h.Verified {
		return fmt.Sprintf("race NOT verified after %d attempts: %s", h.Attempts, h.Report.ID())
	}
	s := fmt.Sprintf("race verified on %s: about to read %d, about to write %d",
		h.VarName, h.ReadVal, h.WriteVal)
	if h.WritesNull {
		s += " [NULL-pointer hint]"
	}
	if h.ReadsUninitialized {
		s += " [uninitialized-read hint]"
	}
	return s
}

// Verifier verifies race reports dynamically.
type Verifier struct {
	// Attempts is the number of differently seeded runs per report
	// (default 8). Reports the verifier cannot reproduce within the budget
	// are eliminated — the paper's R.V.E. column in Table 3 — accepting
	// that some real-but-fragile races are lost (§5.2 "two cases ... miss
	// real races").
	Attempts int
	// MaxSteps bounds each run (default 200000).
	MaxSteps int
	// HoldBudget bounds how many steps the verifier waits, after one
	// racing instruction is captured, for the partner thread to arrive
	// (default 15000). If the pair does not co-arrive within the budget,
	// the attempt gives up and the next seed is tried; "catching the race
	// in the racing moment" is inherently a co-arrival property. A hold
	// proven doomed gives up before the budget runs out.
	HoldBudget int

	// keepDoomed turns the doomed-hold proof off, so every hold waits
	// for its partner, a stall or HoldBudget: the reference the proof's
	// oracle test compares against.
	keepDoomed bool
}

// New returns a verifier with default budgets.
func New() *Verifier { return &Verifier{Attempts: 8, MaxSteps: 200000, HoldBudget: 15000} }

// Verify attempts to catch the report's race in the racing moment.
func (v *Verifier) Verify(mk MachineFactory, rep *race.Report) (*Hint, error) {
	attempts := v.Attempts
	if attempts <= 0 {
		attempts = 8
	}
	hint := &Hint{Report: rep}
	instrA := rep.Prev.Instr
	instrB := rep.Cur.Instr
	if instrA == nil || instrB == nil {
		return hint, nil
	}
	for i := 0; i < attempts; i++ {
		hint.Attempts = i + 1
		caught, err := v.tryOnce(mk, rep, instrA, instrB, uint64(i+1), hint)
		if err != nil {
			return nil, err
		}
		if caught {
			hint.Verified = true
			return hint, nil
		}
	}
	return hint, nil
}

// tryOnce performs one verification run; returns whether the racing moment
// was caught.
func (v *Verifier) tryOnce(mk MachineFactory, rep *race.Report, instrA, instrB *ir.Instr, seed uint64, hint *Hint) (bool, error) {
	var (
		machine   *interp.Machine
		heldA     = interp.ThreadID(-1)
		heldB     = interp.ThreadID(-1)
		passOnce  = map[interp.ThreadID]int{}
		heldSince = -1
	)
	holdBudget := v.HoldBudget
	if holdBudget <= 0 {
		holdBudget = 15000
	}
	var proof *holdProof
	if !v.keepDoomed {
		proof = newHoldProof(instrA, instrB)
	}
	doomed := false
	bp := func(m *interp.Machine, t *interp.Thread, in *ir.Instr) interp.BPAction {
		if proof != nil && proof.observe(m, t, in, heldA, heldB) {
			doomed = true
		}
		if in != instrA && in != instrB {
			return interp.BPContinue
		}
		if passOnce[t.ID] > 0 {
			passOnce[t.ID]--
			return interp.BPContinue
		}
		if in == instrA && heldA < 0 && t.ID != heldB {
			heldA = t.ID
			return interp.BPSuspend
		}
		if in == instrB && heldB < 0 && t.ID != heldA {
			heldB = t.ID
			return interp.BPSuspend
		}
		return interp.BPContinue
	}
	m, err := mk(sched.NewRandom(seed), bp)
	if err != nil {
		return false, fmt.Errorf("race verifier: build machine: %w", err)
	}
	machine = m

	steps := v.MaxSteps
	if steps <= 0 {
		steps = 200000
	}
	for i := 0; i < steps; i++ {
		if heldA >= 0 && heldB >= 0 {
			if v.racingMoment(machine, heldA, heldB, hint) {
				return true, nil
			}
			// Suspended at the pair but not on the same address (e.g. two
			// different array elements): release the earlier capture and
			// keep hunting.
			machine.Resume(heldA)
			passOnce[heldA]++
			heldA = -1
		}
		switch {
		case heldA >= 0 || heldB >= 0:
			if heldSince < 0 {
				heldSince = i
			} else if i-heldSince > holdBudget {
				// The partner is not coming: give up this attempt rather
				// than spin the rest of the step budget away.
				return false, nil
			}
		default:
			heldSince = -1
		}
		if doomed {
			// No thread can ever reach the partner instruction (see
			// holdProof): the hold could only time out.
			return false, nil
		}
		if !machine.Step() {
			switch machine.Stall() {
			case interp.StallSuspended:
				// Livelock: the program cannot make progress while a
				// breakpoint holds a thread others wait on. Temporarily
				// release one triggered breakpoint (§5.2).
				released := false
				if heldA >= 0 {
					machine.Resume(heldA)
					passOnce[heldA]++
					heldA = -1
					released = true
				} else if heldB >= 0 {
					machine.Resume(heldB)
					passOnce[heldB]++
					heldB = -1
					released = true
				}
				if !released {
					return false, nil
				}
			default:
				return false, nil
			}
		}
	}
	return false, nil
}

// racingMoment checks that the two suspended threads' pending accesses
// conflict, and if so extracts the security hints.
func (v *Verifier) racingMoment(m *interp.Machine, ta, tb interp.ThreadID, hint *Hint) bool {
	pa, okA := m.Pending(ta)
	pb, okB := m.Pending(tb)
	if !okA || !okB {
		return false
	}
	if pa.Addr != pb.Addr {
		return false
	}
	if !pa.IsWrite && !pb.IsWrite {
		return false
	}
	// Order so that rd is the read side when there is one.
	rd, wr := pa, pb
	if pa.IsWrite && !pb.IsWrite {
		rd, wr = pb, pa
	}
	hint.VarName = m.Mem().NameFor(pa.Addr)
	hint.ReadVal = rd.Val
	hint.WriteVal = wr.Val
	if wr.IsWrite && wr.Val == 0 && pointerUse(rd.Instr) {
		hint.WritesNull = true
	}
	if !rd.IsWrite && rd.Val == 0 && neverWritten(m, pa.Addr) {
		hint.ReadsUninitialized = true
	}
	hint.Schedule = m.Schedule()
	// Release both threads so the caller can finish the run if desired.
	m.Resume(ta)
	m.Resume(tb)
	return true
}

// pointerUse reports whether the value loaded by in is later used as an
// address (load/store pointer operand or indirect callee) in the same
// function — the static half of the NULL-pointer hint.
func pointerUse(in *ir.Instr) bool {
	if in == nil || in.Op != ir.OpLoad || in.Dst == "" || in.Fn == nil {
		return false
	}
	derived := map[string]bool{in.Dst: true}
	for _, cand := range in.Fn.Instrs() {
		if cand.Index <= in.Index {
			continue
		}
		switch cand.Op {
		case ir.OpLoad:
			if cand.Args[0].Kind == ir.OperandReg && derived[cand.Args[0].Name] {
				return true
			}
		case ir.OpStore:
			if cand.Args[1].Kind == ir.OperandReg && derived[cand.Args[1].Name] {
				return true
			}
		case ir.OpCall:
			if cand.Callee().Kind == ir.OperandReg && derived[cand.Callee().Name] {
				return true
			}
		case ir.OpGep:
			if cand.Args[0].Kind == ir.OperandReg && derived[cand.Args[0].Name] && cand.Dst != "" {
				derived[cand.Dst] = true
			}
		}
	}
	return false
}

// neverWritten reports whether the address still holds its load-time
// initial image (heuristic: value zero and block is heap — globals have
// declared initializers, so zero there is usually intentional).
func neverWritten(m *interp.Machine, addr int64) bool {
	b := m.Mem().Find(addr)
	return b != nil && b.Kind == interp.BlockHeap && m.Mem().Peek(addr) == 0
}
