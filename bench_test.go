// Benchmark harness regenerating every table and figure of the paper's
// evaluation (§8). Each benchmark runs the corresponding experiment and
// reports the paper-comparable quantities as custom metrics:
//
//	BenchmarkTable1  — study summary (race-report counts per program)
//	BenchmarkTable2  — detection results (attacks found / OWL reports)
//	BenchmarkTable3  — report reduction (the 94.3% headline, full noise)
//	BenchmarkTable4  — known-attack exploit repetitions
//	BenchmarkFig1/2/6/7/8 — the per-figure end-to-end case studies
//
// The design-choice ablations of DESIGN.md §5 and the exploration and
// prediction gates are tests (internal/owl). Run with:
// go test -bench=. -benchmem .
package conanalysis

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/conanalysis/owl/internal/audit"
	"github.com/conanalysis/owl/internal/eval"
	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/owl"
	"github.com/conanalysis/owl/internal/race"
	"github.com/conanalysis/owl/internal/sched"
	"github.com/conanalysis/owl/internal/vuln"
	"github.com/conanalysis/owl/internal/workloads"
)

// buildTablesOnce caches the expensive full-noise evaluation so Table
// benchmarks share one run.
var (
	tablesOnce sync.Once
	tablesFull *eval.Tables
	tablesErr  error
)

func fullTables(b *testing.B) *eval.Tables {
	b.Helper()
	tablesOnce.Do(func() {
		tablesFull, tablesErr = eval.BuildTables(eval.Config{Noise: workloads.NoiseFull})
	})
	if tablesErr != nil {
		b.Fatal(tablesErr)
	}
	return tablesFull
}

func BenchmarkTable1(b *testing.B) {
	var raw int
	for i := 0; i < b.N; i++ {
		t := fullTables(b)
		raw = 0
		for _, pe := range t.Programs {
			raw += pe.RawReports
		}
	}
	b.ReportMetric(float64(raw), "raw-reports")
}

func BenchmarkTable2(b *testing.B) {
	var found, modelled int
	for i := 0; i < b.N; i++ {
		t := fullTables(b)
		found, modelled = t.AttacksFoundTotal()
	}
	b.ReportMetric(float64(found), "attacks-found")
	b.ReportMetric(float64(modelled), "attacks-modelled")
	if found != modelled {
		b.Errorf("found %d of %d attacks (paper: 10/10)", found, modelled)
	}
}

func BenchmarkTable3(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		t := fullTables(b)
		ratio = t.ReductionRatio()
	}
	b.ReportMetric(100*ratio, "reduction-%")
	if ratio < 0.80 {
		b.Errorf("reduction ratio %.1f%%, paper reports 94.3%%", 100*ratio)
	}
}

func BenchmarkTable4(b *testing.B) {
	var within20, total int
	for i := 0; i < b.N; i++ {
		t := fullTables(b)
		within20, total = 0, 0
		for _, exs := range t.Exploits {
			for _, ex := range exs {
				total++
				if ex.Succeeded && ex.Runs <= 20 {
					within20++
				}
			}
		}
	}
	b.ReportMetric(float64(within20), "within-20-reps")
	b.ReportMetric(float64(total), "attacks")
}

func benchFigure(b *testing.B, id string) {
	var f *eval.FigureResult
	for i := 0; i < b.N; i++ {
		var err error
		f, err = eval.Figure(id, eval.Config{Noise: workloads.NoiseLight})
		if err != nil {
			b.Fatal(err)
		}
	}
	if !eval.FigureOK(f) {
		b.Errorf("figure reproduction failed: %s", f)
	}
	b.ReportMetric(float64(f.Reps), "exploit-reps")
}

// BenchmarkFig1 reproduces Figure 1: the Libsafe dying-flag race letting a
// strcpy bypass the overflow check (code injection).
func BenchmarkFig1(b *testing.B) { benchFigure(b, "fig1") }

// BenchmarkFig2 reproduces Figure 2: the Linux uselib/msync f_op race and
// its NULL function-pointer dereference, under the SKI-style explorer.
func BenchmarkFig2(b *testing.B) { benchFigure(b, "fig2") }

// BenchmarkFig6 reproduces Figure 6: the SSDB binlog use-after-free
// (CVE-2016-1000324).
func BenchmarkFig6(b *testing.B) { benchFigure(b, "fig6") }

// BenchmarkFig7 reproduces Figure 7: the Apache #25520 buffered-log
// overflow and HTML integrity violation.
func BenchmarkFig7(b *testing.B) { benchFigure(b, "fig7") }

// BenchmarkFig8 reproduces Figure 8: the Apache #46215 busy-counter
// underflow DoS.
func BenchmarkFig8(b *testing.B) { benchFigure(b, "fig8") }

// BenchmarkPipelineLibsafe times the end-to-end pipeline on the smallest
// workload (throughput reference).
func BenchmarkPipelineLibsafe(b *testing.B) {
	w := workloads.Get("libsafe", workloads.NoiseLight)
	p := owl.Program{Module: w.Module, Inputs: w.Recipe("attack").Inputs, MaxSteps: w.MaxSteps}
	for i := 0; i < b.N; i++ {
		if _, err := owl.Run(p, owl.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelPipeline is the DESIGN.md §5 parallel-speedup ablation:
// the full workload registry built over 1, 4, and NumCPU workers
// (BuildTablesParallel, which also overlaps the §3 study with the pool;
// workers=1 is what BuildTables runs). The workers=4 run is the
// acceptance gate — it must be at least ~2x faster than workers=1 on a
// 4-core machine. Run with -benchtime=1x: one build per variant is the
// comparison the ablation wants.
func BenchmarkParallelPipeline(b *testing.B) {
	cfg := eval.Config{Noise: workloads.NoiseFull}
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.BuildTablesParallel(cfg, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAuditScope measures the paper's §7.2 application: restricting
// runtime auditing to OWL-identified vulnerable paths. Reports the
// fraction of events the scope filters out versus a full monitor.
func BenchmarkAuditScope(b *testing.B) {
	w := workloads.Get("libsafe", workloads.NoiseLight)
	rec := w.Recipe("attack")
	res, err := owl.Run(owl.Program{
		Module: w.Module, Inputs: rec.Inputs, MaxSteps: w.MaxSteps,
	}, owl.Options{DisableVulnVerify: true})
	if err != nil {
		b.Fatal(err)
	}
	var findings []*vuln.Finding
	for _, fs := range res.FindingsByReport {
		findings = append(findings, fs...)
	}
	scope := audit.NewScope(findings)
	var reduction float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mon := audit.NewMonitor(scope)
		mon.KeepRecords = false
		m, err := interp.New(interp.Config{
			Module: w.Module, Inputs: rec.Inputs, MaxSteps: w.MaxSteps,
			Sched: sched.NewRandom(uint64(i + 1)), Observers: []interp.Observer{mon},
		})
		if err != nil {
			b.Fatal(err)
		}
		m.Run()
		reduction = mon.Reduction()
	}
	b.ReportMetric(100*reduction, "audit-reduction-%")
}

// The snapshot-ablation portfolio. Prefix-sharing pays off when the
// explored schedules share an expensive deterministic prefix: the
// archetype is a server that builds its tables single-threaded and only
// then opens the concurrency window exploration actually branches in.
// The two fixtures below model that shape (a flat init loop and a
// nested compute loop feeding a short racy section); the two smallest
// real workloads ride along as a no-regression check — their racy
// kernels start almost immediately, so they are the cache's worst case
// and keep the measured speedup honest.
const snapBenchInitTable = `
global @table [512]
global @sum = 0
global @mu = 0

func @worker(%base) {
entry:
  call @io_delay(2)
  %p = addr @table
  %q = gep %p, %base
  %v = load %q
  %v2 = add %v, 1
  store %v2, %q
  call @mutex_lock(@mu)
  %s = load @sum
  %s2 = add %s, %v2
  store %s2, @sum
  call @mutex_unlock(@mu)
  ret %v2
}

func @main() {
entry:
  %p = addr @table
  jmp loop
loop:
  %i = phi [entry: 0], [loop: %next]
  %q = gep %p, %i
  %v = mul %i, 3
  store %v, %q
  %next = add %i, 1
  %c = icmp lt %next, 512
  br %c, loop, done
done:
  %t1 = call @spawn(@worker, 7)
  %t2 = call @spawn(@worker, 9)
  %m = load @sum
  call @yield()
  %j1 = call @join(%t1)
  %j2 = call @join(%t2)
  %s = load @sum
  call @print(%s)
  call @print(%m)
  ret 0
}
`

const snapBenchWarmCache = `
global @acc = 0
global @flag = 0
global @mu = 0
global @cells [64]

func @worker(%k) {
entry:
  call @io_delay(%k)
  %f = load @flag
  store %k, @flag
  call @mutex_lock(@mu)
  %a = load @acc
  %a2 = add %a, %f
  store %a2, @acc
  call @mutex_unlock(@mu)
  ret %f
}

func @main() {
entry:
  %p = addr @cells
  jmp outer
outer:
  %i = phi [entry: 0], [inner_done: %inext]
  jmp inner
inner:
  %j = phi [outer: 0], [inner: %jnext]
  %x = mul %i, %j
  %q = gep %p, %j
  %old = load %q
  %nv = add %old, %x
  store %nv, %q
  %jnext = add %j, 1
  %jc = icmp lt %jnext, 64
  br %jc, inner, inner_done
inner_done:
  %inext = add %i, 1
  %ic = icmp lt %inext, 32
  br %ic, outer, done
done:
  %t1 = call @spawn(@worker, 1)
  %t2 = call @spawn(@worker, 2)
  %t3 = call @spawn(@worker, 3)
  %j1 = call @join(%t1)
  %j2 = call @join(%t2)
  %j3 = call @join(%t3)
  %s = load @acc
  call @print(%s)
  ret 0
}
`

// snapBenchCase is one member of the ablation portfolio: a base config
// (module, entry, inputs, step bound) the run-specific parts are layered
// onto.
type snapBenchCase struct {
	name string
	base interp.Config
}

func snapBenchPortfolio(b *testing.B) []snapBenchCase {
	b.Helper()
	cases := []snapBenchCase{}
	for _, f := range []struct{ name, src string }{
		{"init-table", snapBenchInitTable},
		{"warm-cache", snapBenchWarmCache},
	} {
		mod, err := ir.Parse(f.name+".oir", f.src)
		if err != nil {
			b.Fatal(err)
		}
		cases = append(cases, snapBenchCase{name: f.name, base: interp.Config{Module: mod, MaxSteps: 50000}})
	}
	for _, name := range []string{"libsafe", "ssdb"} {
		w := workloads.Get(name, workloads.NoiseLight)
		rec := w.Recipe(w.Attacks[0].InputRecipe)
		cases = append(cases, snapBenchCase{name: name, base: interp.Config{
			Module: w.Module, Entry: w.Entry, Inputs: rec.Inputs, MaxSteps: w.MaxSteps,
		}})
	}
	return cases
}

// ipbPortfolio runs the systematic IPB exploration over one portfolio
// member — race detector and coverage recorder attached, exactly the
// observer set the coverage-guided detect stage uses — and returns how
// many schedules ran plus an order-sensitive digest of what they
// produced. With snap == nil every schedule replays from step 0; with a
// cache, schedules resume from the deepest snapshotted ancestor prefix.
func ipbPortfolio(c snapBenchCase, budget int, snap *sched.SnapCache) (int, string, error) {
	gc := sched.NewCoverage()
	var digest strings.Builder
	var d *race.Detector
	var cov *sched.RunCoverage
	ex := &sched.Explorer{MaxRuns: budget, Snap: snap}
	res, err := ex.ExploreIPBRun(
		func() interp.Config {
			d, cov = race.NewDetector(), gc.NewRun()
			cfg := c.base
			cfg.Observers = []interp.Observer{d}
			cfg.SwitchObservers = []interp.SwitchObserver{cov}
			return cfg
		},
		func(m *interp.Machine, ds *sched.DecisionSched) error {
			r := m.Result()
			ids := make([]string, 0, len(d.Reports()))
			for _, rep := range d.Reports() {
				ids = append(ids, fmt.Sprintf("%s x%d", rep.ID(), rep.Count))
			}
			sort.Strings(ids)
			fmt.Fprintf(&digest, "exit=%d steps=%d faults=%d out=%q races=%v new=%d\n",
				r.ExitCode, r.Steps, len(r.Faults), strings.Join(r.Output, "|"), ids, gc.Merge(cov))
			return nil
		},
	)
	if err != nil {
		return 0, "", err
	}
	fmt.Fprintf(&digest, "pairs=%d\n", gc.Pairs())
	return res.Runs, digest.String(), nil
}

// BenchmarkExplorationSnapshots is the prefix-sharing ablation (run once
// by `make bench-smoke`): the IPB portfolio at an equal schedule budget,
// replay-from-root versus copy-on-write snapshot resume. It asserts the
// two variants explore the same schedule count with identical outcomes
// (the determinism contract), then gates on the speedup: snapshotting
// must cut the portfolio's wall clock by >= 1.5x. Run with -benchtime=1x.
func BenchmarkExplorationSnapshots(b *testing.B) {
	const budget = 24
	portfolio := snapBenchPortfolio(b)
	var replay, snapshot time.Duration
	for i := 0; i < b.N; i++ {
		replay, snapshot = 0, 0
		for _, c := range portfolio {
			start := time.Now()
			runs0, digest0, err := ipbPortfolio(c, budget, nil)
			if err != nil {
				b.Fatal(err)
			}
			replay += time.Since(start)

			start = time.Now()
			runs1, digest1, err := ipbPortfolio(c, budget, sched.NewSnapCache(1024))
			if err != nil {
				b.Fatal(err)
			}
			snapshot += time.Since(start)

			if runs0 != runs1 {
				b.Fatalf("%s: snapshotting changed the schedule count: %d vs %d", c.name, runs0, runs1)
			}
			if digest0 != digest1 {
				b.Fatalf("%s: snapshotting changed exploration outcomes:\n--- replay\n%s--- snapshot\n%s",
					c.name, digest0, digest1)
			}
		}
	}
	speedup := float64(replay) / float64(snapshot)
	b.ReportMetric(float64(replay.Microseconds()), "replay-us")
	b.ReportMetric(float64(snapshot.Microseconds()), "snapshot-us")
	b.ReportMetric(speedup, "speedup")
	if speedup < 1.5 {
		b.Errorf("snapshot resume speedup = %.2fx, want >= 1.5x (replay %v, snapshot %v)",
			speedup, replay, snapshot)
	}
}
