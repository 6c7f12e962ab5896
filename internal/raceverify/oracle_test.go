//go:build !race

package raceverify_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/owl"
	"github.com/conanalysis/owl/internal/race"
	"github.com/conanalysis/owl/internal/raceverify"
	"github.com/conanalysis/owl/internal/workloads"
)

// corpus calls fn once per workload, noise level and input recipe of
// the built-in corpus, with the recipe's annotated reports (detection
// and ad-hoc pruning at default options) and a factory for its
// verification machines. Workloads run as parallel subtests.
func corpus(t *testing.T, fn func(t *testing.T, tag string, mk raceverify.MachineFactory, reps []*race.Report)) {
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
					fn(t, tag, mk, res.Annotated)
				}
			}
		})
	}
}

// TestSharedPrefixOracle verifies every annotated report of every
// built-in workload, at both noise levels and with every input recipe,
// as one batch sharing each seed's prefix at workers 1 and 3, and once
// more with every attempt run from step 0 on its own machine. All three
// must give identical hints (Schedule included): resuming an attempt
// from the snapshot before its first capture must never change an
// outcome.
func TestSharedPrefixOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("verifies the whole corpus three times")
	}
	shared := raceverify.New()
	ref := raceverify.FromStepZero(raceverify.New())
	corpus(t, func(t *testing.T, tag string, mk raceverify.MachineFactory, reps []*race.Report) {
		want := ref.VerifyAll(context.Background(), mk, reps, 1)
		for _, workers := range []int{1, 3} {
			got := shared.VerifyAll(context.Background(), mk, reps, workers)
			sameHints(t, fmt.Sprintf("%s workers=%d, from the shared prefix", tag, workers), reps, got, want)
		}
	})
}

// TestWatchAllOracle verifies every annotated report of every built-in
// workload, at both noise levels and with every input recipe, with the
// machines watching only what the verifier acts on — the racing pair,
// and while a thread is held the proof's side-effect words and
// arrivals — at workers 1 and 3, and once more with every instruction
// watched, so the breakpoints run at every step as a per-step hook
// would. The batches must be identical: hints (Schedule included),
// errors and steps.
func TestWatchAllOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("verifies the whole corpus three times")
	}
	watched := raceverify.New()
	ref := raceverify.WatchEveryInstruction(raceverify.New())
	corpus(t, func(t *testing.T, tag string, mk raceverify.MachineFactory, reps []*race.Report) {
		want := ref.VerifyAll(context.Background(), mk, reps, 1)
		for _, workers := range []int{1, 3} {
			got := watched.VerifyAll(context.Background(), mk, reps, workers)
			tag := fmt.Sprintf("%s workers=%d, watching the pair and the armed proof", tag, workers)
			sameHints(t, tag, reps, got, want)
			if got.Steps != want.Steps {
				t.Errorf("%s: %d steps, with every instruction watched %d", tag, got.Steps, want.Steps)
			}
		}
	})
}

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
	corpus(t, func(t *testing.T, tag string, mk raceverify.MachineFactory, reps []*race.Report) {
		got := cut.VerifyAll(context.Background(), mk, reps, 1)
		want := full.VerifyAll(context.Background(), mk, reps, 1)
		sameHints(t, tag+", with the cut", reps, got, want)
	})
}
