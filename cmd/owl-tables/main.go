// Command owl-tables regenerates the paper's evaluation tables (1-4) from
// the workload models, printing each next to the corresponding paper
// numbers where the comparison is meaningful (the models are ~1/10-scale
// syntheses, so the shape — ratios and orderings — is the claim, not the
// absolute counts).
//
// Usage:
//
//	owl-tables [-table all|1|2|3|4] [-noise full|light] [-workers N] [-metrics out.json]
//	owl-tables [-explore fixed|coverage] [-budget N] [-seed N] [-stable]
//	owl-tables [-predict [-predict-reversal]] [-max-steps N] [-fail-fast=false]
//
// -stable elides the non-deterministic timing fields so the output can be
// diffed byte-for-byte against the committed golden fixture (make golden).
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/conanalysis/owl/internal/cliflags"
	"github.com/conanalysis/owl/internal/eval"
	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/report"
	"github.com/conanalysis/owl/internal/workloads"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "owl-tables:", err)
		os.Exit(1)
	}
}

// flags builds the binary's flag set: the shared set (cliflags) plus the
// tables-only flags. Split out so the parity test can inspect it.
func flags() (*flag.FlagSet, *cliflags.Shared, *ownFlags) {
	fs := flag.NewFlagSet("owl-tables", flag.ContinueOnError)
	shared := cliflags.Register(fs, cliflags.Defaults{
		Noise:        "full",
		Workers:      0,
		WorkersUsage: "parallel workload evaluations (0 = NumCPU)",
		// The tables pipeline fails fast by default: a degraded stage would
		// silently skew a table row (see eval.Config.Pipeline).
		FailFast: true,
	})
	own := &ownFlags{
		table:  fs.String("table", "all", "which table to print: all, 1, 2, 3, 4"),
		stable: fs.Bool("stable", false, "deterministic output: elide timing fields (golden-fixture mode)"),
	}
	return fs, shared, own
}

type ownFlags struct {
	table  *string
	stable *bool
}

func run(args []string) error {
	fs, shared, own := flags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	lvl, err := workloads.ParseNoise(shared.Noise)
	if err != nil {
		return err
	}
	cfg := eval.Config{Noise: lvl, Pipeline: shared.Pipeline}
	if err := cfg.Validate(); err != nil {
		return err
	}
	// -workers fans out over workloads here, so it leaves the pipeline
	// options (after validation): each workload's pipeline is sequential.
	workers := cfg.Pipeline.Workers
	cfg.Pipeline.Workers = 0
	if shared.MetricsOut != "" {
		cfg.Pipeline.Metrics = metrics.New()
	}
	if cfg.Pipeline.Faults, err = shared.Plan(); err != nil {
		return err
	}

	fmt.Printf("building tables (noise=%s)...\n\n", shared.Noise)
	t, err := eval.BuildTablesParallel(cfg, workers)
	if err != nil {
		return err
	}
	t.Stable = *own.stable
	if err := cliflags.EmitMetrics(cfg.Pipeline.Metrics, shared.MetricsOut); err != nil {
		return err
	}

	show := func(n string) bool { return *own.table == "all" || *own.table == n }
	if show("1") {
		fmt.Println("Table 1: Concurrency attacks study results")
		fmt.Print(report.Table(t.Table1()))
		fmt.Println()
	}
	if show("2") {
		fmt.Println("Table 2: OWL concurrency attack detection results")
		fmt.Print(report.Table(t.Table2()))
		found, modelled := t.AttacksFoundTotal()
		fmt.Printf("OWL detected %d of %d modelled attacks (paper: 10 of 10 evaluated)\n\n",
			found, modelled)
	}
	if show("3") {
		fmt.Println("Table 3: OWL's reduction on race detector reports")
		fmt.Print(report.Table(t.Table3()))
		fmt.Printf("overall reduction: %.1f%% (paper: 94.3%%)\n\n", 100*t.ReductionRatio())
	}
	if show("4") {
		fmt.Println("Table 4: OWL's detection results on known concurrency attacks")
		fmt.Print(report.Table(t.Table4()))
		fmt.Println()
	}
	if !*own.stable {
		fmt.Printf("total evaluation time: %s\n", t.Elapsed.Round(1e8))
	}
	return nil
}
