package eval

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"github.com/conanalysis/owl/internal/attack"
	"github.com/conanalysis/owl/internal/study"
	"github.com/conanalysis/owl/internal/supervise"
	"github.com/conanalysis/owl/internal/workloads"
)

// evalWorkloadFn is the per-workload evaluation BuildTablesParallel's
// workers run; tests swap it to inject failures into the pool.
var evalWorkloadFn = EvalWorkload

// BuildTablesParallel evaluates every workload and runs its exploit
// campaign, fanned out over a bounded worker pool (workers <= 0 means
// NumCPU; a zero cfg.Pipeline.Workers means 1 here, so pools do not
// nest unless asked to), with the §3 study (which is independent of the table
// evaluations) overlapped with the pool instead of serialized after it.
// Everything a worker touches is freshly constructed (each workload gets
// its own module and machines), so the workers share nothing; results
// are collected in registry order to keep output deterministic.
//
// The pool runs under a supervisor (internal/supervise): a panicking
// workload evaluation is contained, and the first failure cancels the
// pool's context so in-flight workloads stop at their next run boundary
// and release their worker slots promptly — not just the jobs that had
// yet to start. The error returned is the failed workload earliest in
// registry order (naming the workload and the stage that failed inside
// it), so multi-failure runs report deterministically regardless of
// worker scheduling.
func BuildTablesParallel(cfg Config, workers int) (*Tables, error) {
	cfg, err := cfg.prepare()
	if err != nil {
		return nil, err
	}
	mc := cfg.Pipeline.Metrics
	// Clock the whole build, workload construction included.
	start := time.Now()
	defer mc.Stage("eval.total")()
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	// The pool already fans out across workloads: each workload's
	// pipeline runs sequentially unless the caller asks for more.
	if cfg.Pipeline.Workers == 0 {
		cfg.Pipeline.Workers = 1
	}
	names := workloads.Names()
	if workers > len(names) {
		workers = len(names)
	}
	mc.Gauge("eval.workers", float64(workers))

	type slot struct {
		pe  *ProgramEval
		ex  []*attack.Result
		err error
	}
	slots := make([]slot, len(names))
	evalOne := evalWorkloadFn
	if evalOne == nil {
		evalOne = EvalWorkload
	}

	// CancelOnFault makes the first failed workload cancel the pool's
	// context; the other workloads observe it between interpreter runs
	// (the owl pipeline is cancelable) and exit instead of finishing.
	sup := supervise.New(supervise.Config{
		Ctx:           cfg.Pipeline.Ctx,
		Faults:        cfg.Pipeline.Faults,
		Metrics:       mc,
		MetricsPrefix: "eval",
		CancelOnFault: true,
	})

	// The study reads nothing the workload evaluations produce, so it runs
	// concurrently with the pool rather than after it.
	type studyOut struct {
		st  *study.Result
		err error
	}
	studyCh := make(chan studyOut, 1)
	go func() {
		st, err := study.Run(study.Config{
			Noise: cfg.Noise, DetectRuns: cfg.Pipeline.DetectRuns, Metrics: mc,
		})
		studyCh <- studyOut{st: st, err: err}
	}()

	st := sup.Stage("eval.workloads")
	st.ForEach(0, len(names), workers, func(ctx context.Context, i int) error {
		if err := st.Inject(i); err != nil {
			return err
		}
		// Each worker builds its own workload instance: modules and
		// machines are not safe for concurrent use, and this way they
		// never need to be. The stage context rides down into the owl
		// pipeline so a sibling's failure stops this workload too.
		wcfg := cfg
		wcfg.Pipeline.Ctx = ctx
		wl := workloads.Get(names[i], cfg.Noise)
		pe, err := evalOne(wl, wcfg)
		if err != nil {
			err = fmt.Errorf("workload %s: eval: %w", names[i], err)
			slots[i] = slot{err: err}
			return err
		}
		ex, err := ExploitCampaign(wl, 100)
		if err != nil {
			err = fmt.Errorf("workload %s: exploit campaign: %w", names[i], err)
			slots[i] = slot{err: err}
			return err
		}
		slots[i] = slot{pe: pe, ex: ex}
		return nil
	})
	st.Close()
	sr := <-studyCh

	// Report the earliest failed workload in registry order, skipping the
	// workloads that merely observed the pool's cancellation (their error
	// is the fallback when the caller's own context ended the build).
	var cancelErr error
	for _, s := range slots {
		if s.err == nil {
			continue
		}
		if errors.Is(s.err, context.Canceled) || errors.Is(s.err, context.DeadlineExceeded) {
			if cancelErr == nil {
				cancelErr = s.err
			}
			continue
		}
		return nil, s.err
	}
	// A panicking evaluation never writes its slot; its quarantine record
	// (earliest run index first) carries the recovered reason.
	if fq := st.FirstQuarantine(); fq != nil {
		return nil, fmt.Errorf("workload %s: %s", names[fq.Run], fq.Reason)
	}
	if sup.Err() != nil {
		if cancelErr != nil {
			return nil, cancelErr
		}
		return nil, fmt.Errorf("eval: build canceled: %w", sup.Err())
	}
	t := &Tables{Cfg: cfg, Exploits: make(map[string][]*attack.Result)}
	for i, s := range slots {
		t.Programs = append(t.Programs, s.pe)
		t.Exploits[names[i]] = s.ex
	}
	if sr.err != nil {
		return nil, sr.err
	}
	t.Study = sr.st
	t.Elapsed = time.Since(start)
	return t, nil
}
