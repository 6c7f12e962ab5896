// Benchmark harness regenerating every table and figure of the paper's
// evaluation (§8). Each benchmark runs the corresponding experiment and
// reports the paper-comparable quantities as custom metrics:
//
//	BenchmarkTable1  — study summary (race-report counts per program)
//	BenchmarkTable2  — detection results (attacks found / OWL reports)
//	BenchmarkTable3  — report reduction (the 94.3% headline, full noise)
//	BenchmarkTable4  — known-attack exploit repetitions
//	BenchmarkFig1/2/6/7/8 — the per-figure end-to-end case studies
//	BenchmarkAblation* — design-choice ablations from DESIGN.md §5
//
// Run with: go test -bench=. -benchmem .
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
	"github.com/conanalysis/owl/internal/metrics"
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

// runPipeline runs the application pipeline over one workload recipe with
// the given options; used by the ablations.
func runPipeline(b *testing.B, name, recipe string, opts owl.Options) *owl.Result {
	b.Helper()
	w := workloads.Get(name, workloads.NoiseLight)
	rec := w.Recipe(recipe)
	res, err := owl.Run(owl.Program{
		Module: w.Module, Inputs: rec.Inputs, MaxSteps: w.MaxSteps,
	}, opts)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// strcpyFound reports whether the Libsafe strcpy site is among findings.
func strcpyFound(res *owl.Result) bool {
	for _, fs := range res.FindingsByReport {
		for _, f := range fs {
			if f.Site.IsCall() && f.Site.Callee().Name == "strcpy" {
				return true
			}
		}
	}
	return false
}

// BenchmarkAblationControlDep shows that disabling control-flow tracking
// (the Livshits-style analysis of §9) loses the Libsafe attack while
// full Algorithm 1 keeps it.
func BenchmarkAblationControlDep(b *testing.B) {
	var with, without bool
	for i := 0; i < b.N; i++ {
		with = strcpyFound(runPipeline(b, "libsafe", "attack", owl.Options{}))
		without = strcpyFound(runPipeline(b, "libsafe", "attack", owl.Options{DisableCtrlFlow: true}))
	}
	if !with || without {
		b.Errorf("ctrl-dep ablation wrong: with=%v without=%v (want true/false)", with, without)
	}
}

// BenchmarkAblationInterProcedural shows that an intra-procedural analysis
// (the Conseq/Yamaguchi limitation of §9) loses the cross-function Libsafe
// site.
func BenchmarkAblationInterProcedural(b *testing.B) {
	var with, without bool
	for i := 0; i < b.N; i++ {
		with = strcpyFound(runPipeline(b, "libsafe", "attack", owl.Options{}))
		without = strcpyFound(runPipeline(b, "libsafe", "attack", owl.Options{DisableInterProc: true}))
	}
	if !with || without {
		b.Errorf("inter-proc ablation wrong: with=%v without=%v (want true/false)", with, without)
	}
}

// BenchmarkAblationAdhoc measures the §5.1 schedule-reduction stage:
// disabling it leaves the ad-hoc sync reports in the output.
func BenchmarkAblationAdhoc(b *testing.B) {
	var with, without int
	for i := 0; i < b.N; i++ {
		with = len(runPipeline(b, "mysql", "flush-attack", owl.Options{}).Annotated)
		without = len(runPipeline(b, "mysql", "flush-attack", owl.Options{DisableAdhoc: true}).Annotated)
	}
	b.ReportMetric(float64(with), "reports-with-adhoc")
	b.ReportMetric(float64(without), "reports-without")
	if with >= without {
		b.Errorf("adhoc annotation did not reduce reports: %d vs %d", with, without)
	}
}

// BenchmarkAblationRaceVerify measures the §5.2 verification stage:
// disabling it keeps the ordered-in-practice false positives.
func BenchmarkAblationRaceVerify(b *testing.B) {
	var with, without int
	for i := 0; i < b.N; i++ {
		with = runPipeline(b, "memcached", "benign", owl.Options{}).Stats.Remaining
		without = runPipeline(b, "memcached", "benign", owl.Options{DisableRaceVerify: true}).Stats.Remaining
	}
	b.ReportMetric(float64(with), "remaining-with-verify")
	b.ReportMetric(float64(without), "remaining-without")
	if with >= without {
		b.Errorf("race verification did not reduce reports: %d vs %d", with, without)
	}
}

// BenchmarkPipelineLibsafe times the end-to-end pipeline on the smallest
// workload (throughput reference).
func BenchmarkPipelineLibsafe(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runPipeline(b, "libsafe", "attack", owl.Options{})
	}
}

// BenchmarkParallelPipeline is the DESIGN.md §5 parallel-speedup ablation:
// the full workload registry built sequentially (BuildTables) versus
// fanned out over 1, 4, and NumCPU workers (BuildTablesParallel, which
// also overlaps the §3 study with the pool). The workers=4 run is the
// acceptance gate — it must be at least ~2x faster than sequential on a
// 4-core machine. Run with -benchtime=1x: one build per variant is the
// comparison the ablation wants.
func BenchmarkParallelPipeline(b *testing.B) {
	cfg := eval.Config{Noise: workloads.NoiseFull}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eval.BuildTables(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
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

// explorationWorkloads lists the application workloads the exploration
// ablation compares on (kernel workloads run under the SKI-style
// detector, which has its own exploration loop).
func explorationWorkloads() []*workloads.Workload {
	var out []*workloads.Workload
	for _, name := range workloads.Names() {
		w := workloads.Get(name, workloads.NoiseLight)
		if w.Kernel || len(w.Attacks) == 0 {
			continue
		}
		out = append(out, w)
	}
	return out
}

// BenchmarkExploration is the detect-stage exploration ablation behind
// `make bench-explore`: the fixed-seed loop versus the coverage-guided
// portfolio engine at the same run budget, pure detection only (the later
// stages are disabled so the comparison isolates schedule exploration).
// Each variant reports the total deduplicated races found across the
// application workloads and the runs actually spent — coverage mode may
// spend fewer when the search saturates. The acceptance gate: coverage
// must find at least as many races as fixed on every workload, and
// strictly more on at least one (or have stopped early with the same
// findings). Run with -benchtime=1x.
func BenchmarkExploration(b *testing.B) {
	const budget = 24
	detectOnly := owl.Options{
		DetectRuns: budget, Budget: budget,
		DisableAdhoc: true, DisableRaceVerify: true, DisableVulnVerify: true,
	}
	races := map[owl.ExploreMode]map[string]int{}
	runsSpent := map[owl.ExploreMode]int{}
	earlyStops := 0
	for _, mode := range []owl.ExploreMode{owl.ExploreFixed, owl.ExploreCoverage} {
		b.Run(string(mode), func(b *testing.B) {
			var perWL map[string]int
			var runs, early int
			for i := 0; i < b.N; i++ {
				perWL, runs, early = map[string]int{}, 0, 0
				for _, w := range explorationWorkloads() {
					rec := w.Recipe(w.Attacks[0].InputRecipe)
					mc := metrics.New()
					opts := detectOnly
					opts.Explore = mode
					opts.Metrics = mc
					res, err := owl.Run(owl.Program{
						Module: w.Module, Entry: w.Entry, Inputs: rec.Inputs, MaxSteps: w.MaxSteps,
					}, opts)
					if err != nil {
						b.Fatal(err)
					}
					perWL[w.Name] = len(res.Raw)
					for _, c := range mc.Snapshot().Counters {
						if c.Name == "owl.detect_runs" {
							runs += int(c.Value)
						}
					}
					for _, g := range mc.Snapshot().Gauges {
						if g.Name == "sched.early_stop" && g.Value == 1 {
							early++
						}
					}
				}
			}
			total := 0
			for _, n := range perWL {
				total += n
			}
			b.ReportMetric(float64(total), "races")
			b.ReportMetric(float64(runs), "runs")
			races[mode] = perWL
			runsSpent[mode] = runs
			earlyStops = early
		})
	}
	fixed, cov := races[owl.ExploreFixed], races[owl.ExploreCoverage]
	if fixed == nil || cov == nil {
		return // sub-benchmark filtered out; nothing to compare
	}
	strictlyMore := 0
	for name, nf := range fixed {
		nc := cov[name]
		if nc < nf {
			b.Errorf("%s: coverage found %d races, fixed found %d at equal budget", name, nc, nf)
		}
		if nc > nf {
			strictlyMore++
		}
	}
	if strictlyMore == 0 && !(earlyStops > 0 && runsSpent[owl.ExploreCoverage] < runsSpent[owl.ExploreFixed]) {
		b.Errorf("coverage mode showed no win: races %v vs %v, runs %d vs %d",
			cov, fixed, runsSpent[owl.ExploreCoverage], runsSpent[owl.ExploreFixed])
	}
}

// BenchmarkPrediction is the predictive-detection ablation behind
// `make bench-predict`: plain coverage-guided exploration versus
// predict-then-confirm at the same run budget on the same application
// corpus as BenchmarkExploration, pure detection only. Prediction spends
// roughly half the budget on seed schedules, reads candidate race pairs
// out of their traces, and spends executions only on steered replays
// confirming them — so it must find at least as many races per workload
// while executing measurably fewer schedules in total. Both quantities
// are asserted here and land in BENCH_predict.json for the perf record.
// Run with -benchtime=1x.
func BenchmarkPrediction(b *testing.B) {
	const budget = 24
	detectOnly := owl.Options{
		DetectRuns: budget, Budget: budget,
		DisableAdhoc: true, DisableRaceVerify: true, DisableVulnVerify: true,
	}
	type arm struct {
		name    string
		predict bool
	}
	races := map[string]map[string]int{}
	runsSpent := map[string]int{}
	saved := map[string]int{}
	for _, a := range []arm{{"coverage", false}, {"predict", true}} {
		b.Run(a.name, func(b *testing.B) {
			var perWL map[string]int
			var runs, sv int
			for i := 0; i < b.N; i++ {
				perWL, runs, sv = map[string]int{}, 0, 0
				for _, w := range explorationWorkloads() {
					rec := w.Recipe(w.Attacks[0].InputRecipe)
					mc := metrics.New()
					opts := detectOnly
					opts.Metrics = mc
					if a.predict {
						opts.Predict, opts.PredictReversal = true, true
					} else {
						opts.Explore = owl.ExploreCoverage
					}
					res, err := owl.Run(owl.Program{
						Module: w.Module, Entry: w.Entry, Inputs: rec.Inputs, MaxSteps: w.MaxSteps,
					}, opts)
					if err != nil {
						b.Fatal(err)
					}
					perWL[w.Name] = len(res.Raw)
					for _, c := range mc.Snapshot().Counters {
						switch c.Name {
						case "owl.detect_runs":
							runs += int(c.Value)
						case "predict.schedules_saved":
							sv += int(c.Value)
						}
					}
				}
			}
			total := 0
			for _, n := range perWL {
				total += n
			}
			b.ReportMetric(float64(total), "races")
			b.ReportMetric(float64(runs), "runs")
			races[a.name] = perWL
			runsSpent[a.name] = runs
			saved[a.name] = sv
		})
	}
	plain, pred := races["coverage"], races["predict"]
	if plain == nil || pred == nil {
		return // sub-benchmark filtered out; nothing to compare
	}
	for name, np := range plain {
		if pred[name] < np {
			b.Errorf("%s: predict-then-confirm found %d races, plain coverage found %d at equal budget",
				name, pred[name], np)
		}
	}
	if runsSpent["predict"] >= runsSpent["coverage"] {
		b.Errorf("prediction spent %d schedules, plain coverage spent %d — no execution saving",
			runsSpent["predict"], runsSpent["coverage"])
	}
	if saved["predict"] <= 0 {
		b.Errorf("predict.schedules_saved = %d, want > 0", saved["predict"])
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

// BenchmarkExplorationSnapshots is the prefix-sharing ablation behind
// `make bench-explore`: the IPB portfolio at an equal schedule budget,
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
