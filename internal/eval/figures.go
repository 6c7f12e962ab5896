package eval

import (
	"fmt"
	"strings"

	"github.com/conanalysis/owl/internal/attack"
	"github.com/conanalysis/owl/internal/report"
	"github.com/conanalysis/owl/internal/workloads"
)

// FigureResult is the outcome of reproducing one of the paper's figure
// case studies end-to-end: the figure's race must be detected, Algorithm 1
// must flag the figure's vulnerable site, the dynamic stages must confirm
// it where applicable, and the exploit driver must realize the consequence.
type FigureResult struct {
	Figure     string
	Workload   string
	AttackID   string
	Detected   bool // the underlying race is in the detector output
	Found      bool // Algorithm 1 flagged the site
	Confirmed  bool // dynamic vulnerability verifier reached the site
	Exploited  bool // the exploit driver realized the consequence
	Reps       int  // repetitions the exploit needed
	HintReport string
}

func (f *FigureResult) String() string {
	return fmt.Sprintf("%s (%s/%s): detected=%v found=%v confirmed=%v exploited=%v reps=%d",
		f.Figure, f.Workload, f.AttackID, f.Detected, f.Found, f.Confirmed, f.Exploited, f.Reps)
}

// figureSpecs maps the paper's figures to workload attack specs. Figures
// 3-5 are the architecture diagram, the Libsafe call stack, and the hint
// report format; 4 and 5 are exercised through the Figure-1 run.
var figureSpecs = map[string]struct {
	workload string
	attackID string
}{
	"fig1":         {"libsafe", "Libsafe-dying"},     // Libsafe dying race
	"fig2":         {"linux", "Linux-2.6.10-uselib"}, // uselib f_op NULL deref
	"fig6":         {"ssdb", "CVE-2016-1000324"},     // SSDB binlog UAF
	"fig7":         {"apache", "Apache-25520"},       // buffered-log HTML integrity
	"fig8":         {"apache", "Apache-46215"},       // busy-counter DoS
	"extra-mysql":  {"mysql", "MySQL-24988"},         // §8.3 known attack
	"extra-chrome": {"chrome", "Chrome-consoleprofile"},
}

// Figures lists the reproducible figure ids.
func Figures() []string {
	return []string{"fig1", "fig2", "fig6", "fig7", "fig8"}
}

// Figure reproduces one figure end-to-end.
func Figure(id string, cfg Config) (*FigureResult, error) {
	spec, ok := figureSpecs[id]
	if !ok {
		return nil, fmt.Errorf("eval: unknown figure %q", id)
	}
	cfg, err := cfg.prepare()
	if err != nil {
		return nil, err
	}
	w := workloads.Get(spec.workload, cfg.Noise)
	if w == nil {
		return nil, fmt.Errorf("eval: unknown workload %q", spec.workload)
	}
	var atk *workloads.AttackSpec
	for i := range w.Attacks {
		if w.Attacks[i].ID == spec.attackID {
			atk = &w.Attacks[i]
		}
	}
	if atk == nil {
		return nil, fmt.Errorf("eval: workload %s has no attack %s", spec.workload, spec.attackID)
	}

	out := &FigureResult{Figure: id, Workload: spec.workload, AttackID: spec.attackID}

	pe, err := EvalWorkload(w, cfg)
	if err != nil {
		return nil, err
	}
	out.Detected = pe.RawReports > 0
	for _, m := range pe.AttacksFound {
		if m.Spec.ID != atk.ID {
			continue
		}
		out.Found = true
		out.Confirmed = m.Confirmed
		out.HintReport = report.Finding(m.Finding)
	}

	d := attack.NewDriver(w)
	ex, err := d.Exploit(*atk)
	if err != nil {
		return nil, err
	}
	out.Exploited = ex.Succeeded
	out.Reps = ex.Runs
	return out, nil
}

// FigureOK reports whether the figure reproduction holds the paper's
// claims: race detected, site found, and the attack exploitable. Kernel
// figures do not require dynamic confirmation (the paper leaves kernel
// verifiers to future work).
func FigureOK(f *FigureResult) bool {
	if !f.Detected || !f.Found || !f.Exploited {
		return false
	}
	if strings.HasPrefix(f.Workload, "linux") {
		return true
	}
	return f.Confirmed
}
