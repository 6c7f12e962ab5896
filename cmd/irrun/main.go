// Command irrun parses and executes a .oir program under a chosen
// scheduler — the quickest way to experiment with the IR and to reproduce
// a racy schedule by seed.
//
// Usage:
//
//	irrun prog.oir [-entry main] [-sched random|rr|pct] [-seed 1]
//	      [-inputs 1,2,3] [-max 1000000] [-races] [-trace]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/race"
	"github.com/conanalysis/owl/internal/sched"
	"github.com/conanalysis/owl/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "irrun:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("irrun", flag.ContinueOnError)
	var (
		entry      = fs.String("entry", "main", "entry function")
		schedName  = fs.String("sched", "random", "scheduler: random, rr, pct")
		seed       = fs.Uint64("seed", 1, "scheduler seed")
		inputsFlag = fs.String("inputs", "", "comma-separated input words")
		maxSteps   = fs.Int("max", 1_000_000, "step bound")
		races      = fs.Bool("races", false, "attach the race detector and print reports")
		traceEv    = fs.Bool("trace", false, "print every event")
		record     = fs.String("record", "", "save the run's schedule to a JSON recording")
		replay     = fs.String("replay", "", "replay a JSON recording instead of scheduling")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: irrun [flags] prog.oir")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	mod, err := ir.Parse(fs.Arg(0), string(src))
	if err != nil {
		return err
	}

	var s interp.Scheduler
	switch *schedName {
	case "random":
		s = sched.NewRandom(*seed)
	case "rr":
		s = sched.NewRoundRobin(1)
	case "pct":
		s = sched.NewPCT(*seed, 3, *maxSteps)
	default:
		return fmt.Errorf("unknown scheduler %q", *schedName)
	}

	var inputs []int64
	if *inputsFlag != "" {
		for _, p := range strings.Split(*inputsFlag, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(p), 0, 64)
			if err != nil {
				return fmt.Errorf("bad input %q: %w", p, err)
			}
			inputs = append(inputs, v)
		}
	}

	var replayer *sched.Replay
	if *replay != "" {
		rec, err := trace.Load(*replay)
		if err != nil {
			return err
		}
		cfg, rep, err := rec.Config(mod)
		if err != nil {
			return err
		}
		// Replays carry their own entry/inputs/bounds.
		*entry, inputs = cfg.Entry, cfg.Inputs
		if cfg.MaxSteps > 0 {
			*maxSteps = cfg.MaxSteps
		}
		s, replayer = cfg.Sched, rep
	}

	var observers []interp.Observer
	det := race.NewDetector()
	if *races {
		observers = append(observers, det)
	}
	if *traceEv {
		observers = append(observers, interp.ObserverFunc(func(m *interp.Machine, e *interp.Event) {
			fmt.Println(e)
		}))
	}

	cfg := interp.Config{
		Module: mod, Entry: *entry, Inputs: inputs, MaxSteps: *maxSteps,
		Sched: s, Observers: observers,
	}
	m, err := interp.New(cfg)
	if err != nil {
		return err
	}
	res := m.Run()

	if replayer != nil && replayer.Diverged {
		fmt.Println("WARNING: replay diverged from the recording")
	}
	if *record != "" {
		note := fmt.Sprintf("irrun -sched %s -seed %d", *schedName, *seed)
		if err := trace.FromRun(cfg, res, note).Save(*record); err != nil {
			return err
		}
		fmt.Printf("-- recording saved to %s\n", *record)
	}

	for _, line := range res.Output {
		fmt.Println(line)
	}
	fmt.Printf("-- exit=%d steps=%d stall=%s uid=%d\n",
		res.ExitCode, res.Steps, res.Stall, res.UID)
	for _, f := range res.Faults {
		fmt.Printf("FAULT: %v\n", f)
		fmt.Println(f.Stack)
	}
	if *races {
		fmt.Printf("-- %d race report(s)\n", len(det.Reports()))
		for _, r := range det.Reports() {
			fmt.Println(r)
		}
	}
	return nil
}
