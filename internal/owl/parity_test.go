package owl

import (
	"testing"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/workloads"
)

// TestOraclePipelineParity pins the production execution path — the
// compiled engine with a per-stage snapshot cache — to the oracle path:
// the tree-walking engine with snapshotting off. Every light-noise
// corpus model runs the whole pipeline in fixed and coverage mode on
// both paths, and the results must be byte-identical.
func TestOraclePipelineParity(t *testing.T) {
	modes := []Options{
		{Explore: ExploreFixed, EnableAtomicity: true},
		{Explore: ExploreCoverage, Budget: 16, Seed: 3, EnableAtomicity: true},
	}
	for _, w := range workloads.All(workloads.NoiseLight) {
		name, recipe := w.Name, ""
		if len(w.Attacks) > 0 {
			recipe = w.Attacks[0].InputRecipe
		}
		p := Program{Module: w.Module, Entry: w.Entry, Inputs: w.Recipe(recipe).Inputs, MaxSteps: w.MaxSteps}
		for _, opts := range modes {
			prod, err := Run(p, opts)
			if err != nil {
				t.Fatalf("%s %s production path: %v", name, opts.Explore, err)
			}
			oracle := opts
			oracle.engine, oracle.snapEntries = interp.EngineTree, -1
			ref, err := Run(p, oracle)
			if err != nil {
				t.Fatalf("%s %s oracle path: %v", name, opts.Explore, err)
			}
			if a, b := fingerprint(ref), fingerprint(prod); a != b {
				t.Errorf("%s %s: production path diverges from the oracle\n--- oracle ---\n%s--- production ---\n%s",
					name, opts.Explore, a, b)
			}
		}
	}
}
