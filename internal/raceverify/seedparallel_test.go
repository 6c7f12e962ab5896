package raceverify_test

import (
	"context"
	"reflect"
	"testing"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/owl"
	"github.com/conanalysis/owl/internal/race"
	"github.com/conanalysis/owl/internal/raceverify"
	"github.com/conanalysis/owl/internal/workloads"
)

// TestSeedParallelMatchesOneSeedAtATime verifies full-noise memcached's
// annotated reports with three seeds at once and one seed at a time,
// and requires identical batches: hints (Schedule included), errors
// and steps. Unlike the corpus oracles it is built under -race too,
// where it checks that concurrent seeds share nothing unsynchronized.
func TestSeedParallelMatchesOneSeedAtATime(t *testing.T) {
	if testing.Short() {
		t.Skip("full-noise verification runs take seconds under -race")
	}
	w := workloads.Get("memcached", workloads.NoiseFull)
	p := owl.Program{Module: w.Module, Entry: w.Entry, Inputs: w.Recipe("").Inputs, MaxSteps: w.MaxSteps}
	res, err := owl.Run(p, owl.Options{DisableRaceVerify: true, DisableVulnVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Annotated) == 0 {
		t.Fatal("no annotated reports")
	}
	mk := func(s interp.Scheduler, bp interp.BreakpointFunc) (*interp.Machine, error) {
		return interp.New(interp.Config{
			Module: p.Module, Entry: p.Entry, Inputs: p.Inputs,
			MaxSteps: p.MaxSteps, Sched: s, Breakpoint: bp,
		})
	}
	want := raceverify.New().VerifyAll(context.Background(), mk, res.Annotated, 1)
	got := raceverify.New().VerifyAll(context.Background(), mk, res.Annotated, 3)
	sameHints(t, "workers=3", res.Annotated, got, want)
	if got.Steps != want.Steps {
		t.Errorf("workers=3: %d steps, one seed at a time %d", got.Steps, want.Steps)
	}
}

// sameHints fails unless got verified every report as want did.
func sameHints(t *testing.T, tag string, reps []*race.Report, got, want *raceverify.Batch) {
	t.Helper()
	for i, rep := range reps {
		if got.Errs[i] != nil || want.Errs[i] != nil {
			t.Fatalf("%s: %s: error %v, reference error %v", tag, rep.ID(), got.Errs[i], want.Errs[i])
		}
		if !reflect.DeepEqual(got.Hints[i], want.Hints[i]) {
			t.Errorf("%s: %s: %+v, reference %+v", tag, rep.ID(), got.Hints[i], want.Hints[i])
		}
	}
}
