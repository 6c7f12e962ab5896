package eval

import (
	"strings"
	"testing"

	"github.com/conanalysis/owl/internal/owl"
	"github.com/conanalysis/owl/internal/workloads"
)

func TestEvalWorkloadFindsAllAttacks(t *testing.T) {
	// Table 2's headline: OWL detects all evaluated attacks.
	for _, w := range workloads.All(workloads.NoiseLight) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			pe, err := EvalWorkload(w, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if len(pe.AttacksFound) != pe.AttacksModelled {
				missing := map[string]bool{}
				for _, a := range w.Attacks {
					missing[a.ID] = true
				}
				for _, m := range pe.AttacksFound {
					delete(missing, m.Spec.ID)
				}
				t.Errorf("found %d/%d attacks; missing: %v",
					len(pe.AttacksFound), pe.AttacksModelled, missing)
			}
			if pe.AttacksModelled > 0 && pe.RawReports == 0 {
				t.Errorf("no raw reports at all")
			}
		})
	}
}

func TestApplicationAttacksDynamicallyConfirmed(t *testing.T) {
	// Non-kernel attacks must be confirmed by the dynamic vulnerability
	// verifier (the paper's verifiers cover applications; kernels are
	// future work, §8.3).
	for _, name := range []string{"libsafe", "ssdb", "mysql", "apache", "chrome"} {
		w := workloads.Get(name, workloads.NoiseLight)
		pe, err := EvalWorkload(w, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range pe.AttacksFound {
			if !m.Confirmed {
				t.Errorf("%s/%s: found but not dynamically confirmed", name, m.Spec.ID)
			}
		}
	}
}

func TestKernelEvalUsesFindingsOnly(t *testing.T) {
	w := workloads.Get("linux", workloads.NoiseLight)
	pe, err := EvalWorkload(w, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pe.AttacksFound) != 2 {
		t.Fatalf("kernel attacks found = %d, want 2", len(pe.AttacksFound))
	}
	for _, m := range pe.AttacksFound {
		if m.Confirmed {
			t.Errorf("kernel attack %s marked confirmed; kernel dynamic verification is future work", m.Spec.ID)
		}
	}
	if pe.VerifierEliminated != 0 {
		t.Errorf("kernel eval ran the race verifier (eliminated %d)", pe.VerifierEliminated)
	}
}

func TestReductionShape(t *testing.T) {
	// The pipeline must strictly reduce reports for every noisy program
	// and keep the attack races (checked above); the full-noise shape
	// (≈90% total, the paper's 94.3%) is exercised by the benchmarks.
	for _, name := range []string{"apache", "mysql", "chrome", "memcached"} {
		w := workloads.Get(name, workloads.NoiseLight)
		pe, err := EvalWorkload(w, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if pe.Remaining >= pe.RawReports {
			t.Errorf("%s: no reduction (%d raw -> %d remaining)", name, pe.RawReports, pe.Remaining)
		}
	}
}

func TestFiguresReproduce(t *testing.T) {
	for _, id := range Figures() {
		id := id
		t.Run(id, func(t *testing.T) {
			f, err := Figure(id, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if !FigureOK(f) {
				t.Errorf("figure reproduction failed: %s", f)
			}
			if f.Found && f.HintReport == "" {
				t.Errorf("no hint report rendered")
			}
		})
	}
}

func TestFigureHintReportFormat(t *testing.T) {
	// Figure 5: the Libsafe hint must be a control-dependent vulnerability
	// whose site is the strcpy line.
	f, err := Figure("fig1", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f.HintReport, "Ctrl Dependent Vulnerability") {
		t.Errorf("hint report missing ctrl-dep header:\n%s", f.HintReport)
	}
	if !strings.Contains(f.HintReport, "Vulnerable Site Location:") {
		t.Errorf("hint report missing site location:\n%s", f.HintReport)
	}
	if !strings.Contains(f.HintReport, "br ") {
		t.Errorf("hint report missing branch hint:\n%s", f.HintReport)
	}
}

func TestUnknownFigure(t *testing.T) {
	if _, err := Figure("fig99", Config{}); err == nil {
		t.Error("want error for unknown figure")
	}
}

func TestTablesShape(t *testing.T) {
	tb, err := BuildTables(Config{Noise: workloads.NoiseLight, Pipeline: owl.Options{DetectRuns: 6}})
	if err != nil {
		t.Fatal(err)
	}
	t1 := tb.Table1()
	if len(t1) < 7 { // header + 6 programs (memcached excluded) + total
		t.Errorf("table 1 rows = %d", len(t1))
	}
	t2 := tb.Table2()
	if len(t2) < 7 {
		t.Errorf("table 2 rows = %d", len(t2))
	}
	t3 := tb.Table3()
	if len(t3) != 9 { // header + 7 programs + total
		t.Errorf("table 3 rows = %d, want 9", len(t3))
	}
	t4 := tb.Table4()
	if len(t4) != 11 { // header + 10 attacks
		t.Errorf("table 4 rows = %d, want 11", len(t4))
	}
	found, modelled := tb.AttacksFoundTotal()
	if found != modelled {
		t.Errorf("attacks found %d != modelled %d", found, modelled)
	}
	if r := tb.ReductionRatio(); r <= 0 || r >= 1 {
		t.Errorf("reduction ratio = %v", r)
	}
	if tb.Study == nil || len(tb.Study.Rows) != 10 {
		t.Errorf("study rows missing")
	}
}

// TestParallelTablesMatchSequential checks that the worker pool is
// invisible in the tables: one worker (what BuildTables runs) and four
// give the same per-program results in registry order.
func TestParallelTablesMatchSequential(t *testing.T) {
	cfg := Config{Noise: workloads.NoiseLight, Pipeline: owl.Options{DetectRuns: 6}}
	seq, err := BuildTablesParallel(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildTablesParallel(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Programs) != len(seq.Programs) {
		t.Fatalf("programs %d != %d", len(par.Programs), len(seq.Programs))
	}
	for i := range seq.Programs {
		s, p := seq.Programs[i], par.Programs[i]
		if s.W.Name != p.W.Name {
			t.Fatalf("order differs: %s vs %s", s.W.Name, p.W.Name)
		}
		if s.RawReports != p.RawReports || s.Remaining != p.Remaining ||
			len(s.AttacksFound) != len(p.AttacksFound) {
			t.Errorf("%s: workers=4 results differ from workers=1: raw %d/%d remain %d/%d attacks %d/%d",
				s.W.Name, s.RawReports, p.RawReports, s.Remaining, p.Remaining,
				len(s.AttacksFound), len(p.AttacksFound))
		}
	}
	fs, _ := seq.AttacksFoundTotal()
	fp, _ := par.AttacksFoundTotal()
	if fs != fp {
		t.Errorf("attacks found differ: %d vs %d", fs, fp)
	}
}

func TestExtraFigureCaseStudies(t *testing.T) {
	// Beyond the paper's numbered figures, the MySQL #24988 and Chrome
	// console.profile case studies (§8.3) reproduce through the same path.
	for _, id := range []string{"extra-mysql", "extra-chrome"} {
		id := id
		t.Run(id, func(t *testing.T) {
			f, err := Figure(id, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if !FigureOK(f) {
				t.Errorf("case study failed: %s", f)
			}
		})
	}
}
