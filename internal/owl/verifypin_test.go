package owl

import (
	"context"
	"testing"

	"github.com/conanalysis/owl/internal/raceverify"
	"github.com/conanalysis/owl/internal/workloads"
)

// TestFullNoiseVerifierCountsPinned pins the dynamic race verifier on
// the full-noise models, which the light-noise golden never exercises:
// the reports reaching the verifier, how many it verifies, the attempts
// it spends and the interpreter steps the verifier executes must stay
// exactly what they are. An interpreter change that alters a single
// scheduling decision under thread-specific breakpoints (suspend,
// resume, sleeping threads, windows) moves at least the step total, and
// so does a change in where the verifier cuts a hold proven doomed or
// where it resumes an attempt from a seed's shared prefix.
func TestFullNoiseVerifierCountsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full-noise verification runs take seconds")
	}
	want := []struct {
		name                        string
		reports, verified, attempts int
		steps                       int64
	}{
		{"apache", 66, 11, 451, 392_516},
		{"memcached", 56, 6, 406, 271_040},
		{"ssdb", 8, 4, 36, 2_046},
	}
	for _, w := range want {
		wl := workloads.Get(w.name, workloads.NoiseFull)
		recipe := ""
		if len(wl.Attacks) > 0 {
			recipe = wl.Attacks[0].InputRecipe
		}
		p := Program{Module: wl.Module, Entry: wl.Entry, Inputs: wl.Recipe(recipe).Inputs, MaxSteps: wl.MaxSteps}
		res, err := Run(p, Options{})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		verified, attempts := 0, 0
		for _, h := range res.Hints {
			attempts += h.Attempts
			if h.Verified {
				verified++
			}
		}
		if len(res.Annotated) != w.reports || verified != w.verified || attempts != w.attempts {
			t.Errorf("%s: reports=%d verified=%d attempts=%d, want %d/%d/%d",
				w.name, len(res.Annotated), verified, attempts, w.reports, w.verified, w.attempts)
		}
		// Re-verify every report as the pipeline does, one seed at a
		// time and with seeds in parallel: the hints must reproduce, and
		// the batch counts the steps a one-seed-at-a-time run executes —
		// the base walk per seed plus each resumed attempt's steps after
		// its snapshot — whatever the worker count.
		for _, workers := range []int{1, 2, 3} {
			b := raceverify.New().VerifyAll(context.Background(), factory(p, ""), res.Annotated, workers)
			for i, rep := range res.Annotated {
				h := b.Hints[i]
				if b.Errs[i] != nil {
					t.Fatalf("%s workers=%d: re-verify %s: %v", w.name, workers, rep.ID(), b.Errs[i])
				}
				if h.Verified != res.Hints[i].Verified || h.Attempts != res.Hints[i].Attempts {
					t.Fatalf("%s workers=%d: re-verifying %s gives verified=%v attempts=%d, the pipeline %v/%d",
						w.name, workers, rep.ID(), h.Verified, h.Attempts, res.Hints[i].Verified, res.Hints[i].Attempts)
				}
			}
			if b.Steps != w.steps {
				t.Errorf("%s workers=%d: steps=%d, want %d", w.name, workers, b.Steps, w.steps)
			}
		}
	}
}
