package owl

import (
	"testing"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/metrics"
)

// classicPredictSrc carries the canonical sync-preserving predictable
// race: the store and load on @x are ordered by the empty critical
// sections under most schedules, so blind exploration must stumble on
// the one preemption that interleaves them, while prediction reads the
// pair straight out of any seed trace and needs a single steered replay.
const classicPredictSrc = `
global @l = 0
global @x = 0

func @worker() {
entry:
  call @mutex_lock(@l)
  call @mutex_unlock(@l)
  %v = load @x
  ret 0
}
func @main() {
entry:
  %t = call @spawn(@worker)
  store 1, @x
  call @mutex_lock(@l)
  call @mutex_unlock(@l)
  %r = call @join(%t)
  ret 0
}
`

func classicProgram(t *testing.T) Program {
	t.Helper()
	mod, err := ir.Parse("predict_gate.oir", classicPredictSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Program{Module: mod}
}

func counterValue(mc *metrics.Collector, name string) int64 {
	for _, c := range mc.Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// TestPredictConfirmsClassicPair: the pipeline in predict mode must
// surface the hidden pair as a confirmed prediction and an ordinary raw
// report.
func TestPredictConfirmsClassicPair(t *testing.T) {
	// Seed 6 is one where no seed schedule observes the race directly, so
	// the pair must travel the full predict-then-confirm path. (Seeds
	// whose random arm stumbles on the race exercise the observed-filter
	// path instead; TestPredictSeedObservationFilters covers that.)
	mc := metrics.New()
	res, err := Run(classicProgram(t), Options{
		Predict: true, Budget: 8, Seed: 6, Metrics: mc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PredictedConfirmed) != 1 {
		t.Fatalf("PredictedConfirmed = %v, want exactly the classic pair", res.PredictedConfirmed)
	}
	found := false
	for _, r := range res.Raw {
		if r.ID() == res.PredictedConfirmed[0] {
			found = true
		}
	}
	if !found {
		t.Errorf("confirmed pair %q missing from Raw %v", res.PredictedConfirmed[0], res.Raw)
	}
	if n := counterValue(mc, "predict.pairs_confirmed"); n < 1 {
		t.Errorf("predict.pairs_confirmed = %d, want >= 1", n)
	}
	if counterValue(mc, "predict.traces") == 0 {
		t.Error("predict.traces = 0; seed traces were not recorded")
	}
}

// TestPredictSeedObservationFilters: when a seed schedule already
// observes the predicted race, no confirmation run is spent on it —
// the prediction is accounted as observed and the budget saved.
func TestPredictSeedObservationFilters(t *testing.T) {
	mc := metrics.New()
	res, err := Run(classicProgram(t), Options{
		Predict: true, Budget: 8, Seed: 7, Metrics: mc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := counterValue(mc, "predict.pairs_observed"); n != 1 {
		t.Fatalf("predict.pairs_observed = %d, want 1 (seed 7's random arm sees the race)", n)
	}
	if n := counterValue(mc, "predict.confirm_runs"); n != 0 {
		t.Errorf("predict.confirm_runs = %d, want 0", n)
	}
	if len(res.Raw) != 1 {
		t.Errorf("race missing from Raw: %v", res.Raw)
	}
	if counterValue(mc, "predict.schedules_saved") <= 0 {
		t.Error("observed prediction should save schedules")
	}
}

// TestPredictDeterministicGate: predicted-pair sets, confirmed IDs, and
// every predict.* counter must be byte-identical across worker counts
// {1, 4, 8} and with the snapshot cache on or off — the same contract
// TestSnapshotCacheDifferentialGate enforces for plain exploration.
func TestPredictDeterministicGate(t *testing.T) {
	for _, name := range []string{"libsafe", "ssdb"} {
		t.Run(name, func(t *testing.T) {
			p, _ := coverageProgram(t, name)
			var baseFP, baseCounters string
			cases := []struct {
				snap, workers int
			}{
				{-1, 1}, // reference: snapshotting off
				{-1, 4},
				{-1, 8},
				{0, 1}, // production: snapCacheEntries
				{0, 4},
				{0, 8},
			}
			for i, tc := range cases {
				mc := metrics.New()
				res, err := Run(p, Options{
					Predict: true, PredictReversal: true,
					Budget: 24, Seed: 7,
					Workers: tc.workers, snapEntries: tc.snap, Metrics: mc,
				})
				if err != nil {
					t.Fatalf("snap=%d workers=%d: %v", tc.snap, tc.workers, err)
				}
				fp, cs := fingerprint(res), dropSnapCounters(countersOf(mc))
				if i == 0 {
					baseFP, baseCounters = fp, cs
					if baseFP == "" {
						t.Fatal("reference run produced an empty result")
					}
					if counterValue(mc, "predict.pairs_predicted") == 0 {
						t.Error("predictor found no pairs on the seed traces; gate is vacuous")
					}
					continue
				}
				if fp != baseFP {
					t.Errorf("snap=%d workers=%d result differs:\n--- base\n%s--- got\n%s",
						tc.snap, tc.workers, baseFP, fp)
				}
				if cs != baseCounters {
					t.Errorf("snap=%d workers=%d counters differ:\n--- base\n%s\n--- got\n%s",
						tc.snap, tc.workers, baseCounters, cs)
				}
			}
		})
	}
}

// TestPredictConfirmDifferentialGate: zero confirmed-prediction false
// positives — every race the predict-then-confirm pipeline confirms
// must also be reported by plain coverage-guided exploration given
// enough budget, because a confirmed prediction is by construction an
// executed schedule exhibiting the race.
func TestPredictConfirmDifferentialGate(t *testing.T) {
	type cfg struct {
		name string
		p    Program
	}
	cfgs := []cfg{{"classic", classicProgram(t)}}
	for _, name := range []string{"libsafe", "ssdb"} {
		p, _ := coverageProgram(t, name)
		cfgs = append(cfgs, cfg{name, p})
	}
	for _, c := range cfgs {
		t.Run(c.name, func(t *testing.T) {
			pres, err := Run(c.p, Options{
				Predict: true, PredictReversal: true, Budget: 24, Seed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Plain exploration with a much larger budget, on the oracle
			// path (tree engine, no snapshot cache), is the ground truth
			// the production-path confirmations must be contained in.
			plain, err := Run(c.p, Options{
				Explore: ExploreCoverage, Budget: 96, Seed: 7,
				engine: interp.EngineTree, snapEntries: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			reported := map[string]bool{}
			for _, r := range plain.Raw {
				reported[r.ID()] = true
			}
			for _, id := range pres.PredictedConfirmed {
				if !reported[id] {
					t.Errorf("confirmed prediction %q not reported by plain exploration at 4x budget", id)
				}
			}
		})
	}
}

// TestPredictSavesSchedulesGate is the prediction acceptance gate
// (docs/PREDICTION.md): on the same corpus and budget as the exploration
// gate, predict-then-confirm finds at least as many races per workload
// as plain coverage-guided exploration while executing fewer schedules.
func TestPredictSavesSchedulesGate(t *testing.T) {
	plain := tallyDetectOnly(t, func(o *Options) { o.Explore = ExploreCoverage })
	pred := tallyDetectOnly(t, func(o *Options) { o.Predict, o.PredictReversal = true, true })
	t.Logf("races: predict %v, coverage %v; runs %d vs %d; saved %d",
		pred.races, plain.races, pred.runs, plain.runs, pred.saved)
	for name, np := range plain.races {
		if pred.races[name] < np {
			t.Errorf("%s: predict-then-confirm found %d races, plain coverage found %d at equal budget",
				name, pred.races[name], np)
		}
	}
	if pred.runs >= plain.runs {
		t.Errorf("prediction spent %d schedules, plain coverage spent %d — no execution saving",
			pred.runs, plain.runs)
	}
	if pred.saved <= 0 {
		t.Errorf("predict.schedules_saved = %d, want > 0", pred.saved)
	}
}
