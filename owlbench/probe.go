package main

import (
	"fmt"
	"time"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/owl"
	"github.com/conanalysis/owl/internal/race"
	"github.com/conanalysis/owl/internal/raceverify"
	"github.com/conanalysis/owl/internal/sched"
	"github.com/conanalysis/owl/internal/vuln"
	"github.com/conanalysis/owl/internal/vulnverify"
)

// probeReps is how many times the interpreter probes run each program.
const probeReps = 9

// factory builds verification machines for p, as the pipeline does.
func factory(p owl.Program) raceverify.MachineFactory {
	return func(s interp.Scheduler, bp interp.BreakpointFunc) (*interp.Machine, error) {
		return interp.New(interp.Config{
			Module: p.Module, Entry: p.Entry, Args: p.Args, Inputs: p.Inputs,
			MaxSteps: p.MaxSteps, Sched: s, Breakpoint: bp,
		})
	}
}

// timed runs f inside a span and returns its duration.
func timed(tr *Tracer, name, job string, parent int, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	tr.Add(name, job, parent, start, end)
	return end.Sub(start), err
}

// probeLayers measures the interpreter, detector, exploration engine and
// verifiers directly, one program at a time, and fills their per-layer
// metrics. budget is the sched probe's exploration budget.
func probeLayers(tr *Tracer, targets []*target, seed uint64, budget int, out map[string]float64) error {
	var (
		stepNS, compileMS, roundMS, pairs, reportMS, analyzeMS, findingMS []float64
		raceExtra                                                         time.Duration
		raceEvents, attempts, reports, eliminated, findings, reached      int64
		snapHits, snapLookups                                             int64
	)
	for _, t := range targets {
		job := "probe/" + t.name
		root, end := tr.Begin("probe", job, 0)

		// interp and race: the same schedules with and without the
		// detector; the difference per detector event is its cost.
		var plain, withDet []float64
		for r := 0; r < probeReps; r++ {
			var steps int
			d, err := timed(tr, "interp.Run", job, root, func() error {
				m, err := newMachine(t.prog, sched.NewRandom(uint64(r+1)), "")
				if err == nil {
					steps = m.Run().Steps
				}
				return err
			})
			if err != nil {
				return err
			}
			plain = append(plain, float64(d))
			stepNS = append(stepNS, float64(d)/float64(max(steps, 1)))
			det := race.NewDetector()
			d, err = timed(tr, "race.Run", job, root, func() error {
				m, err := newMachine(t.prog, sched.NewRandom(uint64(r+1)), "", det)
				if err == nil {
					m.Run()
				}
				return err
			})
			if err != nil {
				return err
			}
			withDet = append(withDet, float64(d))
			if r == 0 {
				raceEvents += det.Stats().Events
			}
		}
		raceExtra += time.Duration(median(withDet) - median(plain))

		// bytecode: lowering is memoized per module, so only a fresh
		// module pays it.
		fresh := t.prog
		fresh.Module = t.rebuild()
		m, err := newMachine(fresh, sched.NewRandom(1), interp.EngineBytecode)
		if err != nil {
			return err
		}
		compileMS = append(compileMS, float64(m.CompileNS())/1e6)

		// sched: the coverage engine with the detector, as the pipeline
		// runs it; then again with a snapshot cache for its hit share.
		for _, cache := range []bool{false, true} {
			var snap *sched.SnapCache
			if cache {
				snap = sched.NewSnapCache(64)
			}
			eng := sched.NewEngine(sched.EngineConfig{Budget: budget, Seed: seed, PCTSteps: t.prog.MaxSteps, Snap: snap})
			res, err := eng.Explore(func(jobs []*sched.Job) error {
				d, err := timed(tr, "sched.round", job, root, func() error { return runRound(t.prog, jobs) })
				if !cache {
					roundMS = append(roundMS, ms(d))
				}
				return err
			})
			if err != nil {
				return err
			}
			if cache {
				st := snap.Stats()
				snapHits += st.Hits
				snapLookups += st.Hits + st.Misses
			} else {
				pairs = append(pairs, float64(res.CoveragePairs))
			}
		}

		// raceverify, vuln and vulnverify over the sample job's reports.
		if t.sample == nil {
			return fmt.Errorf("%s: no traced job result to probe", t.name)
		}
		mk := factory(t.prog)
		rv := raceverify.New()
		analyzer := vuln.NewAnalyzer(t.prog.Module)
		var found []*vuln.Finding
		for _, rep := range t.sample.Annotated {
			var h *raceverify.Hint
			d, err := timed(tr, "raceverify.Verify", job, root, func() (err error) {
				h, err = rv.Verify(mk, rep)
				return err
			})
			if err != nil {
				return err
			}
			reportMS = append(reportMS, ms(d))
			reports++
			attempts += int64(h.Attempts)
			if !h.Verified {
				eliminated++
				continue
			}
			rd, ok := rep.ReadSide()
			if !ok || rd.Instr == nil {
				continue
			}
			var fs []*vuln.Finding
			d, _ = timed(tr, "vuln.Analyze", job, root, func() error {
				fs = analyzer.Analyze(rd.Instr, rd.Stack)
				return nil
			})
			analyzeMS = append(analyzeMS, ms(d))
			found = append(found, fs...)
		}
		vv := vulnverify.New()
		for _, f := range found {
			var o *vulnverify.Outcome
			d, err := timed(tr, "vulnverify.Verify", job, root, func() (err error) {
				o, err = vv.Verify(mk, f)
				return err
			})
			if err != nil {
				return err
			}
			findingMS = append(findingMS, ms(d))
			findings++
			if o.Reached {
				reached++
			}
		}
		end()
	}
	out["interp.step_ns"] = median(stepNS)
	out["race.event_ns"] = float64(raceExtra) / float64(max(raceEvents, 1))
	out["bytecode.compile_ms"] = median(compileMS)
	out["sched.round_ms"] = mean(roundMS)
	out["sched.coverage_pairs"] = mean(pairs)
	out["sched.snap_hit_frac"] = ratio(snapHits, snapLookups)
	out["raceverify.report_ms"] = meanOrZero(reportMS)
	out["raceverify.attempts_per_report"] = ratio(attempts, reports)
	out["raceverify.eliminated_frac"] = ratio(eliminated, reports)
	out["vuln.analyze_ms"] = meanOrZero(analyzeMS)
	out["vulnverify.finding_ms"] = meanOrZero(findingMS)
	out["vulnverify.reached_frac"] = ratio(reached, findings)
	return nil
}

// runRound runs one exploration round's jobs with the race detector, as
// the pipeline's coverage-guided detect stage does.
func runRound(p owl.Program, jobs []*sched.Job) error {
	for _, j := range jobs {
		d := race.NewDetector()
		if _, err := j.Run(interp.Config{
			Module: p.Module, Entry: p.Entry, Args: p.Args, Inputs: p.Inputs,
			MaxSteps: p.MaxSteps, Sched: j.Sched,
			Observers:       []interp.Observer{d},
			SwitchObservers: []interp.SwitchObserver{j.Cov},
		}); err != nil {
			return err
		}
		for _, r := range d.Reports() {
			j.ReportIDs = append(j.ReportIDs, r.ID())
		}
	}
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func meanOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return mean(xs)
}
