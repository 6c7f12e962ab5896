//go:build !race

package raceverify_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/owl"
	"github.com/conanalysis/owl/internal/raceverify"
	"github.com/conanalysis/owl/internal/workloads"
)

// TestDoomedHoldOracle verifies every annotated report of every built-in
// workload, at both noise levels and with every input recipe, once with
// the doomed-hold proof and once without, and requires identical hints
// (Schedule included): cutting a hold the proof calls doomed must never
// change an outcome. The file is left out of -race builds, under which
// verifying the corpus twice takes minutes; `make engine-diff` runs it.
func TestDoomedHoldOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("verifies the whole corpus twice")
	}
	cut := raceverify.New()
	full := raceverify.KeepDoomedHolds(raceverify.New())
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, lvl := range []workloads.NoiseLevel{workloads.NoiseLight, workloads.NoiseFull} {
				w := workloads.Get(name, lvl)
				for _, rec := range w.Recipes {
					tag := fmt.Sprintf("noise=%d recipe=%s", lvl, rec.Name)
					p := owl.Program{Module: w.Module, Entry: w.Entry, Inputs: rec.Inputs, MaxSteps: w.MaxSteps}
					res, err := owl.Run(p, owl.Options{DisableRaceVerify: true, DisableVulnVerify: true})
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					mk := func(s interp.Scheduler, bp interp.BreakpointFunc) (*interp.Machine, error) {
						return interp.New(interp.Config{
							Module: p.Module, Entry: p.Entry, Inputs: p.Inputs,
							MaxSteps: p.MaxSteps, Sched: s, Breakpoint: bp,
						})
					}
					for _, rep := range res.Annotated {
						got, err := cut.Verify(mk, rep)
						if err != nil {
							t.Fatalf("%s: %s: %v", tag, rep.ID(), err)
						}
						want, err := full.Verify(mk, rep)
						if err != nil {
							t.Fatalf("%s: %s: %v", tag, rep.ID(), err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s: %s: with the cut %+v, without %+v", tag, rep.ID(), got, want)
						}
					}
				}
			}
		})
	}
}
