package owl

import (
	"context"
	"fmt"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/predict"
	"github.com/conanalysis/owl/internal/race"
	"github.com/conanalysis/owl/internal/sched"
	"github.com/conanalysis/owl/internal/supervise"
)

// detectPredict is the predictive detect stage: spend roughly half the
// budget on coverage-guided seed schedules whose traces feed the
// sync-preserving race predictor, then spend executions only on steered
// replays confirming the predicted pairs the seeds did not already
// observe. Each confirmation resumes from the deepest snapshot-cache
// prefix shared with the predicting run, so a confirm run is typically
// a fraction of a full schedule.
//
// Determinism: the seed phase is the engine's (deterministic for a
// fixed seed/budget/fault plan, worker-count independent); predictions
// are a pure function of the seed traces, candidates are confirmed as
// an order-stable job list with per-slot results, and everything merges
// in candidate order. Reports and predict.* counters are therefore
// byte-identical across worker counts and with the snapshot cache on or
// off.
//
// It returns the merged reports (seed races plus every race the confirm
// replays observed — confirmed predictions among them, which is how
// predicted pairs reach raceverify), the confirmed predicted-pair IDs,
// and the executions spent.
func detectPredict(p Program, st *supervise.StageRun, budget, workers int, benign *race.Annotations, opts Options, mc *metrics.Collector) ([]*race.Report, []string, int) {
	snap := opts.newSnapCache()
	seedBudget := budget / 2
	if seedBudget < 2 {
		seedBudget = budget
	}
	eng := sched.NewEngine(sched.EngineConfig{Budget: seedBudget, Seed: opts.Seed, PCTSteps: p.MaxSteps, Snap: snap})

	// seedRun is what prediction needs from one executed schedule: its
	// synchronization trace and its decided schedule prefix.
	type seedRun struct {
		events    []predict.Ev
		decisions []sched.Decision
	}
	merged := map[string]*race.Report{}
	var order []*race.Report
	var seeds []seedRun
	base := 0
	res, _ := eng.ExploreCtx(st.Ctx(), func(jobs []*sched.Job) error {
		perJob := make([][]*race.Report, len(jobs))
		perSeed := make([]seedRun, len(jobs))
		st.ForEach(base, len(jobs), workers, func(_ context.Context, idx int) error {
			if err := st.Inject(idx); err != nil {
				return err
			}
			i := idx - base
			j := jobs[i]
			d := race.NewDetector()
			d.Benign = benign
			rec := predict.NewRecorder()
			// DFS jobs keep their DecisionSched bare — wrapping it would
			// defeat both snapshot-cache resumption and frontier expansion —
			// and its trace doubles as the decided prefix. Random/PCT jobs
			// get a TraceSched so their schedules are replayable too.
			runSched := j.Sched
			ds, isDS := j.Sched.(*sched.DecisionSched)
			var wrap *sched.TraceSched
			if !isDS {
				wrap = &sched.TraceSched{Inner: j.Sched}
				runSched = wrap
			}
			m, err := j.Run(interp.Config{
				Module: p.Module, Entry: p.Entry, Args: p.Args, Inputs: p.Inputs,
				MaxSteps: st.StepBudget(idx, p.MaxSteps), Sched: runSched,
				Observers:       []interp.Observer{d, rec},
				SwitchObservers: []interp.SwitchObserver{j.Cov},
				Engine:          opts.engine,
			})
			if err != nil {
				return fmt.Errorf("run machine: %w", err)
			}
			if m.Result().MaxStepsHit {
				mc.Count("interp.max_steps_hit", 1)
			}
			flushMachineMetrics(m, mc)
			d.FlushMetrics(mc)
			perJob[i] = d.Reports()
			if isDS {
				perSeed[i] = seedRun{events: rec.Events(), decisions: ds.Trace}
			} else {
				perSeed[i] = seedRun{events: rec.Events(), decisions: wrap.Trace}
			}
			return nil
		})
		base += len(jobs)
		for i, reports := range perJob {
			ids := make([]string, len(reports))
			for k, r := range reports {
				ids[k] = r.ID()
			}
			jobs[i].ReportIDs = ids
			for _, r := range reports {
				if existing, ok := merged[r.ID()]; ok {
					existing.Count += r.Count
					continue
				}
				merged[r.ID()] = r
				order = append(order, r)
			}
		}
		seeds = append(seeds, perSeed...)
		return nil
	})
	flushEngineMetrics(res, mc)
	runs := res.Runs

	// Predict over every seed trace. Pairs the seeds already observed as
	// races need no confirmation run; the rest become candidates in
	// first-predicted order, deduplicated by race identity across seeds.
	var cands []predict.Candidate
	predicted := map[string]bool{}
	var nEvents, observed int64
	for _, s := range seeds {
		nEvents += int64(len(s.events))
		for _, pr := range predict.Pairs(s.events, opts.PredictReversal) {
			id := pr.ID()
			if predicted[id] {
				continue
			}
			predicted[id] = true
			if _, ok := merged[id]; ok {
				observed++
				continue
			}
			cands = append(cands, predict.Candidate{Pair: pr, Prefix: predict.PrefixFor(s.decisions, pr)})
		}
	}
	mc.Count("predict.traces", int64(len(seeds)))
	mc.Count("predict.events", nEvents)
	mc.Count("predict.pairs_predicted", int64(len(predicted)))
	mc.Count("predict.pairs_observed", observed)

	confirmBudget := budget - runs
	if confirmBudget < 0 {
		confirmBudget = 0
	}
	if len(cands) > confirmBudget {
		mc.Count("predict.pairs_skipped", int64(len(cands)-confirmBudget))
		cands = cands[:confirmBudget]
	}

	// Confirm phase: one steered replay per candidate, fanned over the
	// stage pool with per-slot results. A quarantined or lost replay
	// counts as refuted — never as confirmed.
	cf := &predict.Confirmer{Snap: snap}
	type confirmOut struct {
		reports []*race.Report
		hit     bool
	}
	outs := make([]confirmOut, len(cands))
	st.ForEach(base, len(cands), workers, func(_ context.Context, idx int) error {
		if err := st.Inject(idx); err != nil {
			return err
		}
		i := idx - base
		reports, hit, err := cf.Confirm(interp.Config{
			Module: p.Module, Entry: p.Entry, Args: p.Args, Inputs: p.Inputs,
			MaxSteps: st.StepBudget(idx, p.MaxSteps), Engine: opts.engine,
		}, benign, cands[i])
		if err != nil {
			return fmt.Errorf("confirm %s: %w", cands[i].Pair.ID(), err)
		}
		outs[i] = confirmOut{reports: reports, hit: hit}
		return nil
	})
	runs += len(cands)

	var confirmed []string
	var refuted int64
	for i, out := range outs {
		if out.hit {
			confirmed = append(confirmed, cands[i].Pair.ID())
		} else {
			refuted++
		}
		for _, r := range out.reports {
			if existing, ok := merged[r.ID()]; ok {
				existing.Count += r.Count
				continue
			}
			merged[r.ID()] = r
			order = append(order, r)
		}
	}
	mc.Count("predict.confirm_runs", int64(len(cands)))
	mc.Count("predict.pairs_confirmed", int64(len(confirmed)))
	mc.Count("predict.pairs_refuted", refuted)
	if saved := int64(budget - runs); saved > 0 {
		mc.Count("predict.schedules_saved", saved)
	}
	flushSnapMetrics(snap, mc)
	return order, confirmed, runs
}
