// Package audit implements the paper's first envisioned application of
// OWL (§7.2): runtime intrusion/anomaly detection restricted to the
// vulnerable program paths OWL identified. A full monitor audits every
// event a program produces; a Scope built from OWL findings audits only
// the functions on the bug-to-attack propagation paths, the corrupted
// branches, and the vulnerable sites — the paper's "greatly reduce the
// amount of program paths that need to be audited and improve
// performance".
package audit

import (
	"fmt"
	"sort"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/vuln"
)

// Scope is the set of program locations worth auditing.
type Scope struct {
	funcs map[string]bool
	// sites and branches are audited at instruction granularity.
	sites    map[*ir.Instr]bool
	branches map[*ir.Instr]bool
}

// NewScope builds an audit scope from OWL findings: every function on a
// propagation path, every hint branch, and every vulnerable site.
func NewScope(findings []*vuln.Finding) *Scope {
	s := &Scope{
		funcs:    make(map[string]bool),
		sites:    make(map[*ir.Instr]bool),
		branches: make(map[*ir.Instr]bool),
	}
	for _, f := range findings {
		for _, fn := range f.FnPath {
			s.funcs[fn] = true
		}
		if f.Site != nil {
			s.sites[f.Site] = true
			if f.Site.Fn != nil {
				s.funcs[f.Site.Fn.Name] = true
			}
		}
		for _, br := range f.Branches {
			s.branches[br] = true
			if br.Fn != nil {
				s.funcs[br.Fn.Name] = true
			}
		}
	}
	return s
}

// Funcs returns the audited function names, sorted.
func (s *Scope) Funcs() []string {
	out := make([]string, 0, len(s.funcs))
	for fn := range s.funcs {
		out = append(out, fn)
	}
	sort.Strings(out)
	return out
}

// Covers reports whether the instruction falls inside the scope.
func (s *Scope) Covers(in *ir.Instr) bool {
	if in == nil {
		return false
	}
	if s.sites[in] || s.branches[in] {
		return true
	}
	return in.Fn != nil && s.funcs[in.Fn.Name]
}

// Record is one audited event.
type Record struct {
	Kind  interp.EventKind
	Instr *ir.Instr
	TID   interp.ThreadID
	Val   int64
	// SiteHit marks the event as executing a vulnerable site — the alarm
	// an intrusion detector would raise on.
	SiteHit bool
}

// Monitor is an interpreter observer auditing events. With a nil Scope it
// audits everything (the baseline the paper's comparison needs); with an
// OWL-derived Scope it audits only the vulnerable paths.
type Monitor struct {
	Scope *Scope

	// Seen counts every event offered; Audited counts those recorded.
	Seen    int
	Audited int
	Records []Record
	// KeepRecords controls whether audited events are stored (benchmarks
	// only need the counters).
	KeepRecords bool
}

var _ interp.Observer = (*Monitor)(nil)
var _ interp.StackPolicy = (*Monitor)(nil)

// NeedsStack implements interp.StackPolicy: the monitor records
// instructions and values, never call stacks, so the machine can skip
// stack capture entirely when only a monitor is attached.
func (m *Monitor) NeedsStack(interp.EventKind) bool { return false }

// NewMonitor returns a monitor over the given scope (nil = audit all).
func NewMonitor(scope *Scope) *Monitor {
	return &Monitor{Scope: scope, KeepRecords: true}
}

// OnEvent implements interp.Observer.
func (m *Monitor) OnEvent(_ *interp.Machine, e *interp.Event) {
	switch e.Kind {
	case interp.EvRead, interp.EvWrite, interp.EvBranch, interp.EvCall, interp.EvFree:
	default:
		return
	}
	m.Seen++
	if m.Scope != nil && !m.Scope.Covers(e.Instr) {
		return
	}
	m.Audited++
	if m.KeepRecords {
		m.Records = append(m.Records, Record{
			Kind: e.Kind, Instr: e.Instr, TID: e.TID, Val: e.Val,
			SiteHit: m.Scope != nil && m.Scope.sites[e.Instr],
		})
	}
}

// SiteHits returns the audited events that executed a vulnerable site.
func (m *Monitor) SiteHits() []Record {
	var out []Record
	for _, r := range m.Records {
		if r.SiteHit {
			out = append(out, r)
		}
	}
	return out
}

// Reduction returns the fraction of events the scope filtered out.
func (m *Monitor) Reduction() float64 {
	if m.Seen == 0 {
		return 0
	}
	return 1 - float64(m.Audited)/float64(m.Seen)
}

func (m *Monitor) String() string {
	return fmt.Sprintf("audited %d of %d events (%.1f%% reduction), %d site hits",
		m.Audited, m.Seen, 100*m.Reduction(), len(m.SiteHits()))
}
