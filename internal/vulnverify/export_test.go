package vulnverify

import (
	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/raceverify"
	"github.com/conanalysis/owl/internal/vuln"
)

// runThreadWalk is the branch watcher's former step loop, kept as the
// oracle for runProbed: the machine watches only the site, and the loop
// walks all threads for a pending branch before every step and after
// the step samples the one whose thread ran.
func runThreadWalk(m *interp.Machine, f *vuln.Finding, maxSteps int, w *branchWatch) *interp.Result {
	m.Watch(f.Site)
	for i := 0; i < maxSteps; i++ {
		before := map[interp.ThreadID]*ir.Instr{}
		for _, t := range m.Threads() {
			if in := t.Cur(); in != nil && in.Op == ir.OpBr {
				before[t.ID] = in
			}
		}
		if !m.Step() {
			break
		}
		last, ok := m.LastScheduled()
		if !ok {
			continue
		}
		if in, ok := before[last]; ok && w.hints[in] {
			if fr := m.Thread(last).Top(); fr != nil && fr.CurBlock() != nil {
				w.record(in, fr.CurBlock())
			}
		}
	}
	return m.Result()
}

// VerifyThreadWalk is Verify driven by the oracle step loop.
func (v *Verifier) VerifyThreadWalk(mk raceverify.MachineFactory, f *vuln.Finding) (*Outcome, error) {
	return v.verify(mk, f, runThreadWalk)
}

// runWatchAll watches every instruction of the module, so the probe
// sees each step as a per-step hook would: the reference the watched
// set's differential test compares runProbed against.
func runWatchAll(m *interp.Machine, _ *vuln.Finding, maxSteps int, _ *branchWatch) *interp.Result {
	for _, fn := range m.Mod().Funcs {
		for _, in := range fn.Instrs() {
			m.Watch(in)
		}
	}
	return runSteps(m, maxSteps)
}

// VerifyWatchAll is Verify with every instruction watched.
func (v *Verifier) VerifyWatchAll(mk raceverify.MachineFactory, f *vuln.Finding) (*Outcome, error) {
	return v.verify(mk, f, runWatchAll)
}
