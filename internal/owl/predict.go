package owl

import (
	"context"
	"fmt"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/predict"
	"github.com/conanalysis/owl/internal/race"
	"github.com/conanalysis/owl/internal/sched"
)

// detectPredict is the predictive detect stage: spend roughly half the
// budget on coverage-guided seed schedules whose traces feed the
// sync-preserving race predictor, then spend executions only on steered
// replays confirming the predicted pairs the seeds did not already
// observe. Each confirmation resumes from the deepest snapshot-cache
// prefix shared with the predicting run, so a confirm run is typically
// a fraction of a full schedule.
//
// Determinism: the seed phase is r's coverage-guided exploration
// (deterministic for a fixed seed/budget/fault plan, worker-count
// independent); predictions are a pure function of the seed traces,
// candidates are confirmed as an order-stable job list with per-slot
// results, and everything merges in candidate order. Reports and
// predict.* counters are therefore byte-identical across worker counts
// and with the snapshot cache on or off.
//
// Seed races and every race the confirm replays observed (confirmed
// predictions among them, which is how predicted pairs reach
// raceverify) merge into r.set; r.runs counts the executions spent. It
// returns the confirmed predicted-pair IDs.
func detectPredict(r *raceRunner) []string {
	opts, mc := r.opts, r.opts.Metrics
	snap := opts.newSnapCache()
	seedBudget := opts.Budget / 2
	if seedBudget < 2 {
		seedBudget = opts.Budget
	}

	// seedRun is what prediction needs from one executed schedule: its
	// synchronization trace and its decided schedule prefix. Seeds land
	// by run index; a quarantined or lost run leaves an empty trace.
	type seedRun struct {
		events    []predict.Ev
		decisions []sched.Decision
	}
	seeds := make([]seedRun, seedBudget)
	// Every seed run also records its trace: wrap the race attach step.
	detect := r.attach
	r.attach = func(cfg *interp.Config, idx int) func() []*race.Report {
		collect := detect(cfg, idx)
		rec := predict.NewRecorder()
		cfg.Observers = append(cfg.Observers, rec)
		// DFS jobs keep their DecisionSched bare — wrapping it would
		// defeat both snapshot-cache resumption and frontier expansion —
		// and its trace doubles as the decided prefix. Random/PCT jobs
		// get a TraceSched so their schedules are replayable too.
		ds, isDS := cfg.Sched.(*sched.DecisionSched)
		var wrap *sched.TraceSched
		if !isDS {
			wrap = &sched.TraceSched{Inner: cfg.Sched}
			cfg.Sched = wrap
		}
		return func() []*race.Report {
			seeds[idx] = seedRun{events: rec.Events()}
			if isDS {
				seeds[idx].decisions = ds.Trace
			} else {
				seeds[idx].decisions = wrap.Trace
			}
			return collect()
		}
	}
	r.engine(sched.EngineConfig{Budget: seedBudget, Seed: opts.Seed, PCTSteps: r.p.MaxSteps, Snap: snap, FullTraces: true})
	seeds = seeds[:r.runs]

	// Predict over every seed trace. Pairs the seeds already observed as
	// races need no confirmation run; the rest become candidates in
	// first-predicted order, deduplicated by race identity across seeds.
	var cands []predict.Candidate
	predicted := map[[2]*ir.Instr]bool{}
	var nEvents, observed int64
	for _, s := range seeds {
		nEvents += int64(len(s.events))
		for _, pr := range predict.Pairs(s.events, opts.PredictReversal) {
			k := pairKey(pr.A.Instr, pr.B.Instr)
			if predicted[k] {
				continue
			}
			predicted[k] = true
			if r.set.has(k) {
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

	confirmBudget := opts.Budget - r.runs
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
	st, base := r.st, r.runs
	st.ForEach(base, len(cands), opts.Workers, func(_ context.Context, idx int) error {
		if err := st.Inject(idx); err != nil {
			return err
		}
		i := idx - base
		reports, hit, err := cf.Confirm(interp.Config{
			Module: r.p.Module, Entry: r.p.Entry, Args: r.p.Args, Inputs: r.p.Inputs,
			MaxSteps: st.StepBudget(idx, r.p.MaxSteps), Engine: opts.engine, NoSchedule: true,
		}, cands[i])
		if err != nil {
			return fmt.Errorf("confirm %s: %w", cands[i].Pair.ID(), err)
		}
		outs[i] = confirmOut{reports: reports, hit: hit}
		return nil
	})
	r.runs += len(cands)

	var confirmed []string
	var refuted int64
	for i, out := range outs {
		if out.hit {
			confirmed = append(confirmed, cands[i].Pair.ID())
		} else {
			refuted++
		}
		r.set.add(out.reports)
	}
	mc.Count("predict.confirm_runs", int64(len(cands)))
	mc.Count("predict.pairs_confirmed", int64(len(confirmed)))
	mc.Count("predict.pairs_refuted", refuted)
	if saved := int64(opts.Budget - r.runs); saved > 0 {
		mc.Count("predict.schedules_saved", saved)
	}
	flushSnapMetrics(snap, mc)
	return confirmed
}
