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
// never suspends).
func (v *Verifier) Verify(mk raceverify.MachineFactory, f *vuln.Finding) (*Outcome, error) {
	return v.verify(mk, f, runWatched)
}

// stepLoop runs one verification machine to its end, sampling the
// hint-branch outcomes into w.
type stepLoop func(m *interp.Machine, maxSteps int, w *branchWatch) *interp.Result

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
				w.pending, w.thread = in, t
			}
			return interp.BPContinue
		}
		m, err := mk(sched.NewRandom(uint64(i+1)), probe)
		if err != nil {
			return nil, fmt.Errorf("vulnerability verifier: build machine: %w", err)
		}
		res := run(m, v.maxSteps(), w)

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
// each instruction just before it executes; when it is a hint branch
// the probe notes it and its thread as pending.
type branchWatch struct {
	hints   map[*ir.Instr]bool
	stats   map[*ir.Instr]*BranchOutcome
	pending *ir.Instr
	thread  *interp.Thread
}

// record counts one execution of hint branch in by thread t, which has
// just run it: t's new block tells which arm it took.
func (w *branchWatch) record(in *ir.Instr, t *interp.Thread) {
	fr := t.Top()
	if fr == nil || fr.CurBlock() == nil {
		return
	}
	bo := w.stats[in]
	if bo == nil {
		bo = &BranchOutcome{Branch: in}
		w.stats[in] = bo
	}
	bo.Taken = fr.CurBlock().Name == in.Args[1].Name
	bo.Executions++
}

// runWatched steps the machine to its end, recording each hint branch
// the probe saw pending once the step has executed it.
func runWatched(m *interp.Machine, maxSteps int, w *branchWatch) *interp.Result {
	for i := 0; i < maxSteps; i++ {
		w.pending = nil
		if !m.Step() {
			break
		}
		if w.pending != nil {
			w.record(w.pending, w.thread)
		}
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
