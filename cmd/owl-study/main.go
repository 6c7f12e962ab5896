// Command owl-study reproduces the paper's quantitative study (§3):
// per-attack exploitability, repetition counts, cross-function spread,
// call-stack prefix property, race detectability, and report burial.
//
// Usage:
//
//	owl-study [-noise light|full] [-runs 100] [-workers N] [-metrics out.json]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"github.com/conanalysis/owl/internal/cliflags"
	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/report"
	"github.com/conanalysis/owl/internal/study"
	"github.com/conanalysis/owl/internal/workloads"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "owl-study:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("owl-study", flag.ContinueOnError)
	var (
		noise      = fs.String("noise", "light", "workload noise level: light or full")
		maxRuns    = fs.Int("runs", 100, "exploit campaign budget per attack")
		workers    = fs.Int("workers", 1, "study worker pool size (0 = NumCPU, 1 = sequential)")
		metricsOut = fs.String("metrics", "", `write per-stage metrics JSON to this file ("-" = stdout)`)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	lvl, err := workloads.ParseNoise(*noise)
	if err != nil {
		return err
	}
	if *workers <= 0 {
		*workers = runtime.NumCPU()
	}
	var mc *metrics.Collector
	if *metricsOut != "" {
		mc = metrics.New()
	}
	res, err := study.Run(study.Config{Noise: lvl, MaxRuns: *maxRuns, Workers: *workers, Metrics: mc})
	if err != nil {
		return err
	}
	if err := cliflags.EmitMetrics(mc, *metricsOut); err != nil {
		return err
	}

	rows := [][]string{{
		"Workload", "Attack", "Consequence", "Exploited", "Reps",
		"CrossFn", "StackPrefix", "RaceDetected", "BuriedAmong",
	}}
	for _, r := range res.Rows {
		prefix := "n/a"
		if r.PrefixChecked {
			prefix = fmt.Sprintf("%v", r.PrefixStacks)
		}
		rows = append(rows, []string{
			r.Workload, r.Spec.ID, r.Spec.Consequence.String(),
			fmt.Sprintf("%v", r.Exploited), fmt.Sprintf("%d", r.Repetitions),
			fmt.Sprintf("%v", r.CrossFunction), prefix,
			fmt.Sprintf("%v", r.RaceDetected), fmt.Sprintf("%d", r.BuriedAmong),
		})
	}
	fmt.Print(report.Table(rows))
	fmt.Println()
	fmt.Print(res.String())
	return nil
}
