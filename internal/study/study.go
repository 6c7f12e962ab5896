// Package study reproduces the paper's quantitative study (§3) on the
// workload models: the five findings about concurrency attacks and their
// implications for detection tools.
//
//	I.   Concurrency attacks are much more severe than concurrency bugs
//	     (every program has them; consequences include privilege
//	     escalation, code injection, UAF, DoS).
//	II.  Bugs and their attacks are widely spread in program code (many
//	     cross function boundaries), yet share call-stack prefixes.
//	III. Bugs and attacks trigger under separate, subtle inputs with few
//	     repetitions (8/10 under 20 in the paper).
//	IV.  The underlying bugs are data races detectable by race detectors.
//	V.   Attacks are overlooked because the vulnerable races are buried in
//	     excessive benign reports (202:2 for the MySQL query).
package study

import (
	"fmt"
	"strings"

	"github.com/conanalysis/owl/internal/attack"
	"github.com/conanalysis/owl/internal/callstack"
	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/race"
	"github.com/conanalysis/owl/internal/sched"
	"github.com/conanalysis/owl/internal/workloads"
)

// AttackRow is the per-attack study record.
type AttackRow struct {
	Workload string
	Spec     workloads.AttackSpec

	// Exploited + Repetitions: Finding III (the exploit campaign).
	Exploited   bool
	Repetitions int

	// CrossFunction: Finding II (bug and site in different functions,
	// from the model's ground truth).
	CrossFunction bool
	// PrefixStacks: Finding II's optimistic half — at runtime the bug's
	// call stack is a prefix of the site's call stack (or within two
	// levels), measured on a witnessed attack run.
	PrefixStacks  bool
	PrefixChecked bool

	// RaceDetected: Finding IV — the underlying race appears in a plain
	// race detector's reports.
	RaceDetected bool

	// BuriedAmong: Finding V — total raw reports the vulnerable race
	// shares the detector output with.
	BuriedAmong int
}

// Result aggregates the study.
type Result struct {
	Rows []AttackRow
	// TotalPrograms / ProgramsWithAttacks: Finding I.
	TotalPrograms       int
	ProgramsWithAttacks int
}

// Within20 counts attacks exploited within 20 repetitions (Finding III's
// "8 out of 10").
func (r *Result) Within20() int {
	n := 0
	for _, row := range r.Rows {
		if row.Exploited && row.Repetitions <= 20 {
			n++
		}
	}
	return n
}

// CrossFunctionCount counts attacks whose bug and site live in different
// functions (Finding II: 7 of the paper's 10 reproduced attacks).
func (r *Result) CrossFunctionCount() int {
	n := 0
	for _, row := range r.Rows {
		if row.CrossFunction {
			n++
		}
	}
	return n
}

// PrefixCount counts attacks whose runtime stacks exhibit the prefix
// property among those where it could be measured.
func (r *Result) PrefixCount() (have, checked int) {
	for _, row := range r.Rows {
		if !row.PrefixChecked {
			continue
		}
		checked++
		if row.PrefixStacks {
			have++
		}
	}
	return have, checked
}

// DetectedCount counts attacks whose race a detector reported (Finding IV:
// all of them).
func (r *Result) DetectedCount() int {
	n := 0
	for _, row := range r.Rows {
		if row.RaceDetected {
			n++
		}
	}
	return n
}

func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "programs studied: %d, with concurrency attacks: %d (Finding I)\n",
		r.TotalPrograms, r.ProgramsWithAttacks)
	fmt.Fprintf(&b, "attacks exploited within 20 repetitions: %d/%d (Finding III)\n",
		r.Within20(), len(r.Rows))
	fmt.Fprintf(&b, "bug and site in different functions: %d/%d (Finding II)\n",
		r.CrossFunctionCount(), len(r.Rows))
	have, checked := r.PrefixCount()
	fmt.Fprintf(&b, "runtime call-stack prefix property: %d/%d measured (Finding II)\n",
		have, checked)
	fmt.Fprintf(&b, "underlying races detectable: %d/%d (Finding IV)\n",
		r.DetectedCount(), len(r.Rows))
	return b.String()
}

// Config tunes the study run.
type Config struct {
	Noise      workloads.NoiseLevel
	MaxRuns    int // exploit campaign budget per attack (default 100)
	DetectRuns int // detection seeds for findings IV/V (default 8)
	// Workers bounds the pool the per-workload studies fan out over
	// (default 1 = sequential). Each workload is studied entirely by one
	// worker against its own freshly built modules and machines; rows
	// merge in registry order, so the Result is identical for any width.
	Workers int
	// Metrics, when non-nil, receives study-stage instrumentation.
	Metrics *metrics.Collector
}

// Run executes the study over all workloads.
func Run(cfg Config) (*Result, error) {
	if cfg.Noise == 0 {
		cfg.Noise = workloads.NoiseLight
	}
	if cfg.MaxRuns <= 0 {
		cfg.MaxRuns = 100
	}
	if cfg.DetectRuns <= 0 {
		cfg.DetectRuns = 8
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	defer cfg.Metrics.Stage("study.total")()

	all := workloads.All(cfg.Noise)
	outs := make([]workloadStudy, len(all))
	metrics.ForEach(cfg.Metrics, "study.workloads", len(all), workers, func(i int) {
		outs[i] = studyWorkload(all[i], cfg)
	})

	res := &Result{}
	for i, out := range outs {
		if out.err != nil {
			return nil, out.err
		}
		res.TotalPrograms++
		if out.hasAttacks {
			res.ProgramsWithAttacks++
		}
		res.Rows = append(res.Rows, outs[i].rows...)
	}
	cfg.Metrics.Count("study.rows", int64(len(res.Rows)))
	return res, nil
}

// workloadStudy is one workload's share of the study.
type workloadStudy struct {
	hasAttacks bool
	rows       []AttackRow
	err        error
}

// studyWorkload runs the §3 measurements for one workload. It touches only
// the workload instance it is handed, so distinct workloads study safely
// in parallel.
func studyWorkload(w *workloads.Workload, cfg Config) (out workloadStudy) {
	out.hasAttacks = len(w.Attacks) > 0
	reports := detectRaw(w, cfg.DetectRuns)
	for _, spec := range w.Attacks {
		row := AttackRow{
			Workload:      w.Name,
			Spec:          spec,
			CrossFunction: spec.CrossFunction,
			BuriedAmong:   len(reports),
		}
		d := attack.NewDriver(w)
		d.MaxRuns = cfg.MaxRuns
		ex, err := d.Exploit(spec)
		if err != nil {
			out.err = fmt.Errorf("study %s/%s: %w", w.Name, spec.ID, err)
			return out
		}
		row.Exploited = ex.Succeeded
		row.Repetitions = ex.Runs

		row.RaceDetected = raceForAttack(w, spec, reports)
		row.PrefixStacks, row.PrefixChecked = prefixProperty(w, spec)
		out.rows = append(out.rows, row)
	}
	return out
}

// detectRaw runs the plain race detector over the workload's attack
// recipes (or first recipe) and returns deduplicated reports.
func detectRaw(w *workloads.Workload, runs int) []*race.Report {
	recipes := map[string]bool{}
	var inputsList [][]int64
	for _, a := range w.Attacks {
		if !recipes[a.InputRecipe] {
			recipes[a.InputRecipe] = true
			inputsList = append(inputsList, w.Recipe(a.InputRecipe).Inputs)
		}
	}
	if len(inputsList) == 0 && len(w.Recipes) > 0 {
		inputsList = append(inputsList, w.Recipes[0].Inputs)
	}
	merged := map[string]*race.Report{}
	var order []*race.Report
	for _, inputs := range inputsList {
		for seed := uint64(1); seed <= uint64(runs); seed++ {
			d := race.NewDetector()
			m, err := interp.New(interp.Config{
				Module: w.Module, Entry: w.Entry, Inputs: inputs,
				MaxSteps: w.MaxSteps, Sched: sched.NewRandom(seed),
				Observers: []interp.Observer{d},
			})
			if err != nil {
				continue
			}
			m.Run()
			for _, r := range d.Reports() {
				if _, ok := merged[r.ID()]; !ok {
					merged[r.ID()] = r
					order = append(order, r)
				}
			}
		}
	}
	return order
}

// raceForAttack reports whether any detector report plausibly corresponds
// to the attack's underlying race: it races on the spec's RacyVar, or one
// of its sides sits in the spec's site function or the functions the
// attack recipe exercises.
func raceForAttack(w *workloads.Workload, spec workloads.AttackSpec, reports []*race.Report) bool {
	for _, r := range reports {
		if spec.RacyVar != "" && strings.HasPrefix(r.AddrName, spec.RacyVar) {
			return true
		}
		if spec.RacyVar == "" {
			// Heap-based races: match by function of either side being
			// the site function or its callers in the model.
			for _, acc := range []race.Access{r.Prev, r.Cur} {
				if acc.Instr != nil && acc.Instr.Fn != nil &&
					acc.Instr.Fn.Name == spec.SiteFunc {
					return true
				}
			}
		}
	}
	return false
}

// prefixProperty witnesses an attack run and checks that the racy access's
// stack shares its prefix with the vulnerable site's stack (§3.2). It
// returns (property, measured); measured is false when no run reached both
// probes.
func prefixProperty(w *workloads.Workload, spec workloads.AttackSpec) (bool, bool) {
	siteFn := w.Module.Func(spec.SiteFunc)
	if siteFn == nil {
		return false, false
	}
	// The site instruction: first instruction in SiteFunc matching the
	// callee (or the first pointer-deref-ish instruction).
	var site *ir.Instr
	for _, in := range siteFn.Instrs() {
		if spec.SiteCallee != "" {
			if in.IsCall() && in.Callee().Kind == ir.OperandFunc && in.Callee().Name == spec.SiteCallee {
				site = in
				break
			}
		} else if in.Op == ir.OpLoad && in.Args[0].Kind == ir.OperandReg {
			site = in
			break
		} else if in.IsCall() && in.Callee().Kind == ir.OperandReg {
			site = in
			break
		}
	}
	if site == nil {
		return false, false
	}
	inputs := w.Recipe(spec.InputRecipe).Inputs
	probes := []*ir.Instr{site}
	for _, f := range w.Module.Funcs {
		for _, in := range f.Instrs() {
			if in.Op == ir.OpLoad && racyAccess(in, spec) {
				probes = append(probes, in)
			}
		}
	}
	for seed := uint64(1); seed <= 20; seed++ {
		var bugStack, siteStack callstack.Stack
		bp := func(m *interp.Machine, t *interp.Thread, in *ir.Instr) interp.BPAction {
			if in == site && siteStack == nil {
				siteStack = t.Stack().Clone()
			}
			if bugStack == nil && in.Op == ir.OpLoad && racyAccess(in, spec) {
				bugStack = t.Stack().Clone()
			}
			return interp.BPContinue
		}
		m, err := interp.New(interp.Config{
			Module: w.Module, Entry: w.Entry, Inputs: inputs,
			MaxSteps: w.MaxSteps, Sched: sched.NewRandom(seed), Breakpoint: bp,
		})
		if err != nil {
			return false, false
		}
		for _, in := range probes {
			m.Watch(in)
		}
		m.Run()
		if bugStack != nil && siteStack != nil {
			// Prefix property (bug stack is a prefix of site stack), or
			// the site is at most two frames above the shared prefix.
			if siteStack.HasPrefix(bugStack[:len(bugStack)-1]) {
				return true, true
			}
			shared := bugStack.SharedPrefixLen(siteStack)
			return len(bugStack)-shared <= 2, true
		}
	}
	return false, false
}

// racyAccess reports whether the load reads the attack's racy variable.
func racyAccess(in *ir.Instr, spec workloads.AttackSpec) bool {
	if spec.RacyVar != "" {
		return in.Args[0].Kind == ir.OperandGlobal && "@"+in.Args[0].Name == spec.RacyVar
	}
	// Heap-based racy variables: use any reg-addressed load inside the
	// site function as the bug witness.
	return in.Fn != nil && in.Fn.Name == spec.SiteFunc && in.Args[0].Kind == ir.OperandReg
}
