// Command owl runs the OWL directed concurrency-attack detection pipeline
// (detection → ad-hoc sync annotation → dynamic race verification →
// static vulnerability analysis → dynamic vulnerability verification)
// over one of the built-in workload models, or over a user-supplied .oir
// program.
//
// Usage:
//
//	owl -workload libsafe [-recipe attack] [-noise light|full] [-workers 4] [-v]
//	owl -workload mysql -explore coverage -budget 32 [-seed 7]
//	owl -workload libsafe -predict [-predict-reversal] -budget 16 [-seed 7]
//	owl -file prog.oir [-inputs 1,2,3] [-v]
//	owl -workload ssdb -metrics - [-workers 0]
//	owl -workload libsafe -faults plan.json [-stage-timeout 30s] [-retries 1] [-fail-fast]
//	owl -workload mysql [-cpuprofile cpu.out] [-memprofile mem.out]
//	owl -list
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	"github.com/conanalysis/owl/internal/cliflags"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/owl"
	"github.com/conanalysis/owl/internal/report"
	"github.com/conanalysis/owl/internal/workloads"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "owl:", err)
		os.Exit(1)
	}
}

// flags builds the binary's flag set: the shared set (cliflags) plus the
// owl-only flags. Split out so the parity test can inspect it.
func flags() (*flag.FlagSet, *cliflags.Shared, *ownFlags) {
	fs := flag.NewFlagSet("owl", flag.ContinueOnError)
	shared := cliflags.Register(fs, cliflags.Defaults{
		Workers:      1,
		WorkersUsage: "pipeline worker pool size (0 = NumCPU, 1 = sequential)",
	})
	own := &ownFlags{
		workload:   fs.String("workload", "", "built-in workload to analyze (see -list)"),
		recipe:     fs.String("recipe", "", "input recipe (default: first attack recipe)"),
		file:       fs.String("file", "", ".oir program to analyze instead of a workload"),
		inputsFlag: fs.String("inputs", "", "comma-separated input words for -file"),
		detectRuns: fs.Int("runs", 8, "seeded detection executions"),
		cpuProfile: fs.String("cpuprofile", "", "write a pprof CPU profile of the pipeline to this file"),
		memProfile: fs.String("memprofile", "", "write a pprof heap profile (after the pipeline) to this file"),
		list:       fs.Bool("list", false, "list built-in workloads and exit"),
		verbose:    fs.Bool("v", false, "print per-report details"),
	}
	return fs, shared, own
}

type ownFlags struct {
	workload, recipe, file, inputsFlag *string
	detectRuns                         *int
	cpuProfile, memProfile             *string
	list, verbose                      *bool
}

func run(args []string) error {
	fs, shared, own := flags()
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *own.list {
		for _, name := range workloads.Names() {
			w := workloads.Get(name, workloads.NoiseLight)
			fmt.Printf("%-10s %-28s attacks=%d recipes=%s\n",
				name, w.RealName, len(w.Attacks), recipeNames(w))
		}
		return nil
	}

	prog, name, err := resolveProgram(*own.workload, *own.recipe, *own.file, *own.inputsFlag, shared.Noise)
	if err != nil {
		return err
	}

	if shared.MaxSteps > 0 {
		prog.MaxSteps = shared.MaxSteps
	}

	nWorkers := shared.Workers
	if nWorkers <= 0 {
		nWorkers = runtime.NumCPU()
	}
	// The collector always runs (it also backs the truncation warning
	// below); the JSON snapshot is emitted only when -metrics is set.
	mc := metrics.New()
	mode, err := shared.Mode()
	if err != nil {
		return err
	}
	plan, err := shared.Plan()
	if err != nil {
		return err
	}
	stopProfile, err := startCPUProfile(*own.cpuProfile)
	if err != nil {
		return err
	}
	res, err := owl.Run(prog, owl.Options{
		DetectRuns: *own.detectRuns, Workers: nWorkers, Metrics: mc,
		Explore: mode, Budget: shared.Budget, Seed: shared.Seed,
		Predict: shared.Predict, PredictReversal: shared.PredictReversal,
		StageTimeout: shared.StageTimeout, Retries: shared.Retries,
		Faults: plan, FailFast: shared.FailFast,
	})
	stopProfile()
	if err != nil {
		return err
	}
	if err := writeMemProfile(*own.memProfile); err != nil {
		return err
	}
	if shared.MetricsOut != "" {
		if err := emitMetrics(mc, shared.MetricsOut); err != nil {
			return err
		}
	}
	warnTruncation(mc)
	for _, d := range res.Degraded {
		fmt.Fprintf(os.Stderr, "owl: warning: %s\n", d.String())
	}

	fmt.Print(report.Text(name, res))
	if !*own.verbose {
		return nil
	}
	fmt.Println("\n== raw race reports ==")
	for _, r := range res.Raw {
		fmt.Println(report.Race(r))
	}
	if len(res.PredictedConfirmed) > 0 {
		fmt.Println("== confirmed predicted races ==")
		for _, id := range res.PredictedConfirmed {
			fmt.Println(" ", id)
		}
	}
	fmt.Println("== adhoc synchronizations ==")
	for _, s := range res.Syncs {
		fmt.Println(" ", s)
	}
	fmt.Println("== verification hints ==")
	for _, h := range res.Hints {
		fmt.Println(report.Hint(h))
	}
	fmt.Println("== vulnerable input hints ==")
	ids := make([]string, 0, len(res.FindingsByReport))
	for id := range res.FindingsByReport {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Printf("for race %s:\n", id)
		for _, f := range res.FindingsByReport[id] {
			fmt.Println(report.Finding(f))
		}
	}
	fmt.Println("== dynamic vulnerability verification ==")
	for _, o := range res.Outcomes {
		fmt.Println(report.Outcome(o))
	}
	return nil
}

// startCPUProfile begins a pprof CPU profile ("" = off) and returns the
// stop function; the profile covers only the pipeline run, not flag
// parsing or report printing, so flame graphs start at owl.Run.
func startCPUProfile(path string) (func(), error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeMemProfile writes a heap profile after a GC ("" = off), so the
// numbers reflect live pipeline state rather than collectible garbage.
func writeMemProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}

// warnTruncation surfaces silent step-budget truncation: any detection
// run that hit MaxSteps bumps interp.max_steps_hit, and the operator
// should know the raw report set may be incomplete.
func warnTruncation(mc *metrics.Collector) {
	for _, c := range mc.Snapshot().Counters {
		if c.Name == "interp.max_steps_hit" && c.Value > 0 {
			fmt.Fprintf(os.Stderr,
				"owl: warning: %d run(s) hit the interpreter step budget and were truncated (raise -max-steps)\n",
				c.Value)
		}
	}
}

// emitMetrics writes the collector snapshot to path ("-" = stdout); a nil
// collector (no -metrics flag) is a no-op.
func emitMetrics(mc *metrics.Collector, path string) error {
	if mc == nil {
		return nil
	}
	if path == "-" {
		return mc.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	defer f.Close()
	return mc.WriteJSON(f)
}

func recipeNames(w *workloads.Workload) string {
	names := make([]string, len(w.Recipes))
	for i, r := range w.Recipes {
		names[i] = r.Name
	}
	return strings.Join(names, ",")
}

func resolveProgram(workload, recipe, file, inputsFlag, noise string) (owl.Program, string, error) {
	if file != "" {
		src, err := os.ReadFile(file)
		if err != nil {
			return owl.Program{}, "", err
		}
		mod, err := ir.Parse(file, string(src))
		if err != nil {
			return owl.Program{}, "", err
		}
		inputs, err := parseInputs(inputsFlag)
		if err != nil {
			return owl.Program{}, "", err
		}
		return owl.Program{Module: mod, Inputs: inputs, MaxSteps: 500000}, file, nil
	}
	if workload == "" {
		return owl.Program{}, "", fmt.Errorf("need -workload or -file (use -list)")
	}
	lvl := workloads.NoiseLight
	if noise == "full" {
		lvl = workloads.NoiseFull
	}
	w := workloads.Get(workload, lvl)
	if w == nil {
		return owl.Program{}, "", fmt.Errorf("unknown workload %q (use -list)", workload)
	}
	if recipe == "" {
		if len(w.Attacks) > 0 {
			recipe = w.Attacks[0].InputRecipe
		} else if len(w.Recipes) > 0 {
			recipe = w.Recipes[0].Name
		}
	}
	rec := w.Recipe(recipe)
	name := fmt.Sprintf("%s/%s", w.Name, rec.Name)
	return owl.Program{
		Module: w.Module, Entry: w.Entry, Inputs: rec.Inputs, MaxSteps: w.MaxSteps,
	}, name, nil
}

func parseInputs(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 0, 64)
		if err != nil {
			return nil, fmt.Errorf("bad input %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}
