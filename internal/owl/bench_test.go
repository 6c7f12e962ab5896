package owl

import (
	"testing"

	"github.com/conanalysis/owl/internal/sched"
	"github.com/conanalysis/owl/internal/supervise"
	"github.com/conanalysis/owl/internal/workloads"
)

// BenchmarkDetectRun is one detect-stage run as coverage exploration
// executes it: light-noise apache under a PCT schedule, with a coverage
// recorder and the race detector, through the stage runner. Run it with
// -benchmem: B/op and allocs/op are what one detection run allocates.
func BenchmarkDetectRun(b *testing.B) {
	w := workloads.Get("apache", workloads.NoiseLight)
	rec := w.Recipe(w.Attacks[0].InputRecipe)
	p := Program{Module: w.Module, Entry: w.Entry, Inputs: rec.Inputs, MaxSteps: w.MaxSteps}
	st := supervise.New(supervise.Config{}).Stage("owl.detect")
	defer st.Close()
	r := newRunner(p, Options{Workers: 1}, st, attachRace(nil, nil), raceKind)
	cov := sched.NewCoverage()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := uint64(i%8 + 1)
		r.batch([]*sched.Job{{
			Strategy: sched.StrategyPCT, Seed: seed,
			Sched: sched.NewPCT(seed, 3, p.MaxSteps), Cov: cov.NewRun(),
		}})
	}
}
