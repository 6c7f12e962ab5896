//go:build !race

package eval

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ski"
	"github.com/conanalysis/owl/internal/workloads"
)

// TestAdhocFilterOracle holds the kernel half of the ad-hoc stage to
// the re-exploration it replaced: for every kernel workload recipe the
// evaluation drives, at both noise levels, the filtered reports must
// have the re-run's IDs in the re-run's order and, report by report,
// the same best watched read (instruction and stack) — Algorithm 1's
// input. The SKI watcher claims one watch slot per address, so a
// suppressed race could in principle hand its slot to a later one; this
// checks that it does not on the corpus rather than argue it.
func TestAdhocFilterOracle(t *testing.T) {
	cells := 0
	for _, noise := range []workloads.NoiseLevel{workloads.NoiseLight, workloads.NoiseFull} {
		for _, name := range workloads.Names() {
			w := workloads.Get(name, noise)
			if !w.Kernel {
				continue
			}
			for _, rec := range recipesToRun(w) {
				label := fmt.Sprintf("%s/%v/%s", name, noise, rec.Name)
				base := interp.Config{Module: w.Module, Entry: w.Entry, Inputs: rec.Inputs, MaxSteps: w.MaxSteps}
				_, syncs, got, err := kernelReports(base, false)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				_, _, want, err := kernelReports(base, true)
				if err != nil {
					t.Fatalf("%s reference: %v", label, err)
				}
				if len(syncs) == 0 {
					t.Logf("%s: no ad-hoc syncs, nothing filtered", label)
				}
				if g, w := kernelIDs(got), kernelIDs(want); !reflect.DeepEqual(g, w) {
					t.Errorf("%s: filtered IDs differ from the re-run's:\n got %q\nwant %q", label, g, w)
					continue
				}
				for i := range got {
					gi, gs, gok := got[i].BestRead()
					wi, ws, wok := want[i].BestRead()
					if gi != wi || gok != wok || !reflect.DeepEqual(gs, ws) {
						t.Errorf("%s: report %s: best read %v %v differs from the re-run's %v %v",
							label, got[i].Race.ID(), gi, gs, wi, ws)
					}
				}
				cells++
			}
		}
	}
	if cells == 0 {
		t.Fatal("no kernel recipe checked")
	}
}

func kernelIDs(reports []*ski.Report) []string {
	ids := make([]string, len(reports))
	for i, r := range reports {
		ids[i] = r.Race.ID()
	}
	return ids
}
