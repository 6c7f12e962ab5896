package eval

import (
	"fmt"
	"time"

	"github.com/conanalysis/owl/internal/attack"
	"github.com/conanalysis/owl/internal/study"
)

// Tables bundles the regenerated evaluation tables plus the underlying
// per-program evaluations, so callers (cmd/owl-tables, bench_test.go,
// EXPERIMENTS.md generation) compute everything once.
type Tables struct {
	Cfg      Config
	Programs []*ProgramEval
	Study    *study.Result
	Exploits map[string][]*attack.Result
	Elapsed  time.Duration
	// Stable elides the timing fields from the rendered tables (Table 3's
	// A.C. column), leaving only run-to-run deterministic output — the
	// mode behind `owl-tables -stable` and the `make golden` gate.
	Stable bool
}

// BuildTables evaluates every workload and runs the exploit campaigns
// one workload at a time: BuildTablesParallel with a single worker.
func BuildTables(cfg Config) (*Tables, error) { return BuildTablesParallel(cfg, 1) }

// Table1 regenerates the study-summary table: per program — the studied
// program's LoC and attack count (paper values, for reference) next to the
// model's attack count and raw race-report count. The paper's absolute
// report counts came from multi-million-line programs; the model preserves
// the ordering and ratios, not the magnitudes.
func (t *Tables) Table1() [][]string {
	rows := [][]string{{
		"Name", "Paper LoC", "# Concurrency attacks (model)",
		"# Race reports (model)", "# Race reports (paper)",
	}}
	totalAtk, totalRep := 0, 0
	for _, pe := range t.Programs {
		if pe.W.Name == "memcached" {
			continue // Table 3 only, as in the paper
		}
		rows = append(rows, []string{
			pe.W.RealName,
			pe.W.PaperLoC,
			fmt.Sprintf("%d", pe.AttacksModelled),
			fmt.Sprintf("%d", pe.RawReports),
			fmt.Sprintf("%d", pe.W.PaperRaceReports),
		})
		totalAtk += pe.AttacksModelled
		totalRep += pe.RawReports
	}
	rows = append(rows, []string{"Total", "", fmt.Sprintf("%d", totalAtk),
		fmt.Sprintf("%d", totalRep), ""})
	return rows
}

// Table2 regenerates the detection-results table: per program — modelled
// attacks, attacks OWL found, and OWL's report count (findings).
func (t *Tables) Table2() [][]string {
	rows := [][]string{{
		"Name", "# atks", "# atks found", "# OWL's reports",
	}}
	totA, totF, totR := 0, 0, 0
	for _, pe := range t.Programs {
		if pe.AttacksModelled == 0 && pe.W.Name == "memcached" {
			continue
		}
		rows = append(rows, []string{
			pe.W.RealName,
			fmt.Sprintf("%d", pe.AttacksModelled),
			fmt.Sprintf("%d", len(pe.AttacksFound)),
			fmt.Sprintf("%d", pe.Findings),
		})
		totA += pe.AttacksModelled
		totF += len(pe.AttacksFound)
		totR += pe.Findings
	}
	rows = append(rows, []string{"Total", fmt.Sprintf("%d", totA),
		fmt.Sprintf("%d", totF), fmt.Sprintf("%d", totR)})
	return rows
}

// Table3 regenerates the reduction table: R.R. raw reports, A.S. ad-hoc
// syncs annotated, R.V.E. race-verifier eliminations, R. remaining, and
// A.C. the static-analysis cost.
func (t *Tables) Table3() [][]string {
	rows := [][]string{{
		"Name", "R.R.", "A.S.", "R.V.E.", "R.", "A.C.",
	}}
	totRR, totAS, totRVE, totR := 0, 0, 0, 0
	for _, pe := range t.Programs {
		rve := fmt.Sprintf("%d", pe.VerifierEliminated)
		if pe.W.Kernel {
			rve = "N/A" // the paper leaves kernel dynamic verification to future work
		}
		ac := pe.AnalysisTime.Round(time.Millisecond).String()
		if t.Stable {
			ac = "-" // timings are not deterministic; elided for golden diffs
		}
		rows = append(rows, []string{
			pe.W.RealName,
			fmt.Sprintf("%d", pe.RawReports),
			fmt.Sprintf("%d", pe.AdhocSyncs),
			rve,
			fmt.Sprintf("%d", pe.Remaining),
			ac,
		})
		totRR += pe.RawReports
		totAS += pe.AdhocSyncs
		totRVE += pe.VerifierEliminated
		totR += pe.Remaining
	}
	rows = append(rows, []string{"Total", fmt.Sprintf("%d", totRR),
		fmt.Sprintf("%d", totAS), fmt.Sprintf("%d", totRVE),
		fmt.Sprintf("%d", totR), ""})
	return rows
}

// ReductionRatio returns the overall report-reduction ratio across all
// programs (the paper's 94.3% headline).
func (t *Tables) ReductionRatio() float64 {
	raw, remain := 0, 0
	for _, pe := range t.Programs {
		raw += pe.RawReports
		remain += pe.Remaining
	}
	if raw == 0 {
		return 0
	}
	return 1 - float64(remain)/float64(raw)
}

// Table4 regenerates the known-attack table: program/version, vulnerability
// type, subtle inputs, plus the measured repetitions-to-exploit.
func (t *Tables) Table4() [][]string {
	rows := [][]string{{
		"Name", "Vul. Type", "Subtle Inputs", "Repetitions (measured)",
	}}
	for _, pe := range t.Programs {
		for _, ex := range t.Exploits[pe.W.Name] {
			reps := "not triggered"
			if ex.Succeeded {
				reps = fmt.Sprintf("%d", ex.Runs)
			}
			rows = append(rows, []string{
				ex.Spec.ID, ex.Spec.VulnType, ex.Spec.SubtleInput, reps,
			})
		}
	}
	return rows
}

// AttacksFoundTotal counts attacks found across all programs.
func (t *Tables) AttacksFoundTotal() (found, modelled int) {
	for _, pe := range t.Programs {
		found += len(pe.AttacksFound)
		modelled += pe.AttacksModelled
	}
	return found, modelled
}
