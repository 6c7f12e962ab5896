package vulnverify

import (
	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/raceverify"
	"github.com/conanalysis/owl/internal/vuln"
)

// runThreadWalk is the branch watcher's former step loop, kept as the
// oracle for runWatched: before every step it walks all threads for a
// pending branch, and after the step samples the one whose thread ran.
func runThreadWalk(m *interp.Machine, maxSteps int, w *branchWatch) *interp.Result {
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
			w.record(in, m.Thread(last))
		}
	}
	return m.Result()
}

// VerifyThreadWalk is Verify driven by the oracle step loop.
func (v *Verifier) VerifyThreadWalk(mk raceverify.MachineFactory, f *vuln.Finding) (*Outcome, error) {
	return v.verify(mk, f, runThreadWalk)
}
