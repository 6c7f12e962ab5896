// Package vulnverify implements OWL's dynamic vulnerability verifier
// (§6.2). Given a static finding (vulnerable site plus the corrupted
// branches on the way — the vulnerable input hint), it re-runs the program
// and checks whether the site can actually be reached. When it cannot, the
// branch outcomes observed on the way out are reported as diverged
// branches — further input hints for the developer to refine inputs, which
// is exactly what the paper's verifier prints.
package vulnverify

import (
	"fmt"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/raceverify"
	"github.com/conanalysis/owl/internal/sched"
	"github.com/conanalysis/owl/internal/vuln"
)

// BranchOutcome records how a hint branch resolved at runtime.
type BranchOutcome struct {
	Branch *ir.Instr
	// Taken is true when the branch went to its "then" target on the last
	// dynamic occurrence.
	Taken bool
	// Executions counts dynamic occurrences.
	Executions int
}

// Outcome is the verifier's result for one finding.
type Outcome struct {
	Finding *vuln.Finding
	// Reached reports whether the vulnerable site executed.
	Reached bool
	// Attempts is the number of runs used.
	Attempts int
	// Faults are the runtime faults of the witnessing (or last) run — a
	// buffer-overflow fault at a memory site, a UAF at a pointer site, etc.
	Faults []*interp.Fault
	// UID is the process uid at the end of the witnessing run.
	UID int64
	// ExecLog holds exec() paths from the witnessing run.
	ExecLog []string
	// Branches records hint-branch outcomes of the last run; when the site
	// was not reached these are the diverged branches to refine inputs by.
	Branches []BranchOutcome
	// Schedule is the witnessing run's schedule.
	Schedule []interp.ThreadID
}

func (o *Outcome) String() string {
	if o.Reached {
		s := fmt.Sprintf("vulnerability verified: site %s reached (attempt %d)",
			o.Finding.Site.Loc(), o.Attempts)
		if len(o.Faults) > 0 {
			s += fmt.Sprintf("; consequence: %s", o.Faults[0].Kind)
		}
		return s
	}
	s := fmt.Sprintf("site %s NOT reached after %d attempts", o.Finding.Site.Loc(), o.Attempts)
	for _, b := range o.Branches {
		s += fmt.Sprintf("\n  diverged branch %s taken=%v (x%d)", b.Branch.Loc(), b.Taken, b.Executions)
	}
	return s
}

// Verifier re-runs programs to confirm findings.
type Verifier struct {
	// Attempts is the number of differently seeded schedules tried
	// (default 8).
	Attempts int
	// MaxSteps bounds each run (default 200000).
	MaxSteps int
}

// New returns a verifier with defaults.
func New() *Verifier { return &Verifier{Attempts: 8, MaxSteps: 200000} }

// Verify re-runs the program and reports whether the finding's site is
// reachable, with branch hints otherwise. The factory receives the
// scheduler and an instruction probe (as an interp.BreakpointFunc that
// never suspends); the machine watches the site and the hint branches,
// so the probe runs only there.
func (v *Verifier) Verify(mk raceverify.MachineFactory, f *vuln.Finding) (*Outcome, error) {
	return v.verify(mk, f, runProbed)
}

// stepLoop runs one verification machine to its end, at most maxSteps
// steps, with the hint-branch outcomes sampled into w.
type stepLoop func(m *interp.Machine, f *vuln.Finding, maxSteps int, w *branchWatch) *interp.Result

func (v *Verifier) verify(mk raceverify.MachineFactory, f *vuln.Finding, run stepLoop) (*Outcome, error) {
	attempts := v.Attempts
	if attempts <= 0 {
		attempts = 8
	}
	out := &Outcome{Finding: f}
	hintBranches := map[*ir.Instr]bool{}
	for _, br := range f.Branches {
		hintBranches[br] = true
	}
	for i := 0; i < attempts; i++ {
		out.Attempts = i + 1
		reached := false
		w := &branchWatch{hints: hintBranches, stats: map[*ir.Instr]*BranchOutcome{}}
		probe := func(m *interp.Machine, t *interp.Thread, in *ir.Instr) interp.BPAction {
			if in == f.Site {
				reached = true
			}
			if in.Op == ir.OpBr && w.hints[in] {
				if target, ok := m.PendingBranch(t.ID); ok {
					w.record(in, target)
				}
			}
			return interp.BPContinue
		}
		m, err := mk(sched.NewRandom(uint64(i+1)), probe)
		if err != nil {
			return nil, fmt.Errorf("vulnerability verifier: build machine: %w", err)
		}
		res := run(m, f, v.maxSteps(), w)

		if reached {
			out.Reached = true
			out.Faults = res.Faults
			out.UID = res.UID
			out.ExecLog = m.ExecLog()
			out.Schedule = res.Schedule
			out.Branches = collect(w.stats, f.Branches)
			return out, nil
		}
		out.Branches = collect(w.stats, f.Branches)
	}
	return out, nil
}

func (v *Verifier) maxSteps() int {
	if v.MaxSteps > 0 {
		return v.MaxSteps
	}
	return 200000
}

// branchWatch samples hint-branch outcomes. The machine's probe sees
// each hint branch just before it executes, and the block it is about
// to enter tells which arm it takes.
type branchWatch struct {
	hints map[*ir.Instr]bool
	stats map[*ir.Instr]*BranchOutcome
}

// record counts one execution of hint branch in, into block target.
func (w *branchWatch) record(in *ir.Instr, target *ir.Block) {
	bo := w.stats[in]
	if bo == nil {
		bo = &BranchOutcome{Branch: in}
		w.stats[in] = bo
	}
	bo.Taken = target.Name == in.Args[1].Name
	bo.Executions++
}

// runProbed watches the finding's site and hint branches, then steps
// the machine to its end.
func runProbed(m *interp.Machine, f *vuln.Finding, maxSteps int, w *branchWatch) *interp.Result {
	m.Watch(f.Site)
	for br := range w.hints {
		m.Watch(br)
	}
	return runSteps(m, maxSteps)
}

// runSteps steps m until it stops or maxSteps steps were taken.
func runSteps(m *interp.Machine, maxSteps int) *interp.Result {
	for i := 0; i < maxSteps && m.Step(); i++ {
	}
	return m.Result()
}

func collect(stats map[*ir.Instr]*BranchOutcome, order []*ir.Instr) []BranchOutcome {
	var out []BranchOutcome
	seen := map[*ir.Instr]bool{}
	for _, br := range order {
		if seen[br] {
			continue
		}
		seen[br] = true
		if bo := stats[br]; bo != nil {
			out = append(out, *bo)
		}
	}
	return out
}
