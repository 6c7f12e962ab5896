//go:build !race

package owl

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/conanalysis/owl/internal/race"
	"github.com/conanalysis/owl/internal/workloads"
)

// TestAdhocFilterOracle holds the ad-hoc stage's filter to the re-run
// it replaced: on every application workload at both noise levels, in
// fixed, coverage and predict mode, at workers 1 and 3, the reports the
// filter keeps must have exactly the IDs, in order, of the reports a
// second detection under the mined annotations returns. In fixed mode
// both runs execute the same schedules, so the reports must be equal in
// full, counts and witnesses included; guided modes explore differently
// once the annotations change what counts as new, so only the IDs are
// compared there.
func TestAdhocFilterOracle(t *testing.T) {
	modes := []struct {
		name string
		opts Options
	}{
		{"fixed", Options{}},
		{"coverage", Options{Explore: ExploreCoverage, Budget: 32, Seed: 3}},
		{"predict", Options{Predict: true, Budget: 24, Seed: 3}},
	}
	for _, noise := range []workloads.NoiseLevel{workloads.NoiseLight, workloads.NoiseFull} {
		for _, name := range workloads.Names() {
			w := workloads.Get(name, noise)
			if w.Kernel {
				continue
			}
			p := Program{Module: w.Module, Entry: w.Entry, Inputs: w.Recipe(w.DefaultRecipe()).Inputs, MaxSteps: w.MaxSteps}
			for _, mode := range modes {
				for _, workers := range []int{1, 3} {
					label := fmt.Sprintf("%s/%v/%s/workers=%d", name, noise, mode.name, workers)
					opts := mode.opts
					opts.Workers = workers
					opts.DisableRaceVerify, opts.DisableVulnVerify = true, true
					got, err := Run(p, opts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					want, err := Run(p, RerunAdhoc(opts))
					if err != nil {
						t.Fatalf("%s reference: %v", label, err)
					}
					if g, w := reportIDs(got.Annotated), reportIDs(want.Annotated); !reflect.DeepEqual(g, w) {
						t.Errorf("%s: filtered IDs differ from the re-run's:\n got %q\nwant %q", label, g, w)
						continue
					}
					if mode.name == "fixed" && !reflect.DeepEqual(got.Annotated, want.Annotated) {
						t.Errorf("%s: filtered reports differ from the re-run's in content", label)
					}
				}
			}
		}
	}
}

func reportIDs(reports []*race.Report) []string {
	ids := make([]string, len(reports))
	for i, r := range reports {
		ids[i] = r.ID()
	}
	return ids
}
