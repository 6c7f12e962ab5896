package owl

import (
	"testing"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/raceverify"
	"github.com/conanalysis/owl/internal/workloads"
)

// TestFullNoiseVerifierCountsPinned pins the dynamic race verifier on
// the full-noise models, which the light-noise golden never exercises:
// the reports reaching the verifier, how many it verifies, the attempts
// it spends and the interpreter steps those attempts execute must stay
// exactly what they are. An interpreter change that alters a single
// scheduling decision under thread-specific breakpoints (suspend,
// resume, sleeping threads, windows) moves at least the step total, and
// so does a change in where the verifier cuts a hold proven doomed.
func TestFullNoiseVerifierCountsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full-noise verification runs take seconds")
	}
	want := []struct {
		name                        string
		reports, verified, attempts int
		steps                       int64
	}{
		{"apache", 66, 11, 451, 4_046_941},
		{"memcached", 56, 6, 406, 2_933_032},
		{"ssdb", 8, 4, 36, 3_891},
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
		// Re-verify every report on counting machines: the pipeline's
		// hints must reproduce, and the machines' steps add up.
		var steps int64
		var machines []*interp.Machine
		base := factory(p, "")
		counting := func(s interp.Scheduler, bp interp.BreakpointFunc) (*interp.Machine, error) {
			m, err := base(s, bp)
			if err == nil {
				machines = append(machines, m)
			}
			return m, err
		}
		rv := raceverify.New()
		for i, rep := range res.Annotated {
			h, err := rv.Verify(counting, rep)
			if err != nil {
				t.Fatalf("%s: re-verify %s: %v", w.name, rep.ID(), err)
			}
			if h.Verified != res.Hints[i].Verified || h.Attempts != res.Hints[i].Attempts {
				t.Fatalf("%s: re-verifying %s gives verified=%v attempts=%d, the pipeline %v/%d",
					w.name, rep.ID(), h.Verified, h.Attempts, res.Hints[i].Verified, res.Hints[i].Attempts)
			}
			for _, m := range machines {
				steps += int64(m.StepCount())
			}
			machines = machines[:0]
		}
		if len(res.Annotated) != w.reports || verified != w.verified || attempts != w.attempts || steps != w.steps {
			t.Errorf("%s: reports=%d verified=%d attempts=%d steps=%d, want %d/%d/%d/%d",
				w.name, len(res.Annotated), verified, attempts, steps,
				w.reports, w.verified, w.attempts, w.steps)
		}
	}
}
