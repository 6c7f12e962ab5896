package owl

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/race"
	"github.com/conanalysis/owl/internal/raceverify"
	"github.com/conanalysis/owl/internal/sched"
	"github.com/conanalysis/owl/internal/supervise"
	"github.com/conanalysis/owl/internal/workloads"
)

// BenchmarkDetectRun is one detect-stage run as coverage exploration
// executes it: light-noise apache under a PCT schedule, with a coverage
// recorder and the race detector. The apache arm runs it through the
// stage runner; run it with -benchmem: B/op and allocs/op are what one
// detection run allocates. The gated-pollers arm runs the PCT seeds
// under which apache's gated noise workers poll in turn above a starved
// thread until the step bound, the runs the whole-machine spin
// fast-forward jumps, and reports the interpreter steps each run
// executed and skipped.
func BenchmarkDetectRun(b *testing.B) {
	w := workloads.Get("apache", workloads.NoiseLight)
	rec := w.Recipe(w.Attacks[0].InputRecipe)
	p := Program{Module: w.Module, Entry: w.Entry, Inputs: rec.Inputs, MaxSteps: w.MaxSteps}
	cov := sched.NewCoverage()
	b.Run("apache", func(b *testing.B) {
		st := supervise.New(supervise.Config{}).Stage("owl.detect")
		defer st.Close()
		r := newRunner(p, Options{Workers: 1}, st, attachRace(nil, nil), raceKind)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seed := uint64(i%8 + 1)
			r.batch([]*sched.Job{{
				Strategy: sched.StrategyPCT, Seed: seed,
				Sched: sched.NewPCT(seed, 3, p.MaxSteps), Cov: cov.NewRun(),
			}})
		}
	})
	b.Run("gated-pollers", func(b *testing.B) {
		seeds := []uint64{6, 11, 17, 24}
		executed, skipped := 0, 0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d := race.NewDetector()
			m, err := interp.New(interp.Config{
				Module: p.Module, Entry: p.Entry, Inputs: p.Inputs, MaxSteps: p.MaxSteps,
				Sched: sched.NewPCT(seeds[i%len(seeds)], 3, p.MaxSteps), NoSchedule: true,
				Observers:       []interp.Observer{d},
				SwitchObservers: []interp.SwitchObserver{cov.NewRun()},
			})
			if err != nil {
				b.Fatal(err)
			}
			m.RunLoop()
			executed += m.StepCount() - m.SkippedSteps()
			skipped += m.SkippedSteps()
			d.Release()
		}
		b.ReportMetric(float64(executed)/float64(b.N), "executed/op")
		b.ReportMetric(float64(skipped)/float64(b.N), "skipped/op")
	})
}

// BenchmarkVerifyAll is the race-verify stage of a verify-heavy job:
// VerifyAll over the reports default owl.Run hands the verifier on
// full-noise apache, memcached and ssdb, one seed at a time (workers=1)
// and with GOMAXPROCS seeds at once. It reports wall-clock ns per
// verifier step (Batch.Steps counts the base walks and every resumed
// attempt's steps of a one-seed-at-a-time run, whatever the worker
// count); run it with -benchmem for B/op and allocs/op.
func BenchmarkVerifyAll(b *testing.B) {
	type job struct {
		mk   raceverify.MachineFactory
		reps []*race.Report
	}
	var jobs []job
	for _, name := range []string{"apache", "memcached", "ssdb"} {
		w := workloads.Get(name, workloads.NoiseFull)
		recipe := ""
		if len(w.Attacks) > 0 {
			recipe = w.Attacks[0].InputRecipe
		}
		p := Program{Module: w.Module, Entry: w.Entry, Inputs: w.Recipe(recipe).Inputs, MaxSteps: w.MaxSteps}
		res, err := Run(p, Options{})
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		jobs = append(jobs, job{factory(p, ""), res.Annotated})
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var steps int64
			for i := 0; i < b.N; i++ {
				for _, j := range jobs {
					steps += raceverify.New().VerifyAll(context.Background(), j.mk, j.reps, workers).Steps
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(steps, 1)), "ns/step")
		})
	}
}
