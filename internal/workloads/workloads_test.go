package workloads

import (
	"testing"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/sched"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"apache", "chrome", "libsafe", "linux", "memcached", "mysql", "ssdb"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registered workloads = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("workload %d = %s, want %s", i, got[i], want[i])
		}
	}
	if Get("nope", NoiseLight) != nil {
		t.Error("unknown workload should be nil")
	}
}

func TestAllWorkloadsBuildAtBothNoiseLevels(t *testing.T) {
	for _, lvl := range []NoiseLevel{NoiseLight, NoiseFull} {
		for _, w := range All(lvl) {
			if w.Module == nil || !w.Module.Frozen() {
				t.Errorf("%s: module not built/frozen", w.Name)
			}
			if len(w.Recipes) == 0 {
				t.Errorf("%s: no input recipes", w.Name)
			}
			if w.MaxSteps <= 0 {
				t.Errorf("%s: no step bound", w.Name)
			}
		}
	}
}

// TestAllRecipesTerminate runs every workload under every recipe and many
// seeds: no deadlock, no step-bound truncation. Faults are allowed (the
// attack paths fault by design).
func TestAllRecipesTerminate(t *testing.T) {
	for _, w := range All(NoiseLight) {
		for _, rec := range w.Recipes {
			for seed := uint64(1); seed <= 10; seed++ {
				m, err := interp.New(interp.Config{
					Module: w.Module, Entry: w.Entry, Inputs: rec.Inputs,
					MaxSteps: w.MaxSteps, Sched: sched.NewRandom(seed),
				})
				if err != nil {
					t.Fatalf("%s/%s: %v", w.Name, rec.Name, err)
				}
				res := m.Run()
				if res.MaxStepsHit {
					t.Errorf("%s/%s seed %d: hit step bound (%d steps)",
						w.Name, rec.Name, seed, res.Steps)
				}
				if res.Stall == interp.StallDeadlock {
					// Deadlock is only acceptable when a fault killed a
					// thread others join on.
					if len(res.Faults) == 0 {
						t.Errorf("%s/%s seed %d: deadlock without fault",
							w.Name, rec.Name, seed)
					}
				}
			}
		}
	}
}

func TestRecipeLookup(t *testing.T) {
	w := Get("libsafe", NoiseLight)
	if r := w.Recipe("attack"); r.Name != "attack" {
		t.Errorf("recipe lookup failed: %+v", r)
	}
	if r := w.Recipe("no-such"); r.Name != w.Recipes[0].Name {
		t.Errorf("fallback recipe = %+v", r)
	}
}

func TestDefaultRecipe(t *testing.T) {
	for _, name := range Names() {
		w := Get(name, NoiseLight)
		want := w.Recipes[0].Name
		if len(w.Attacks) > 0 {
			want = w.Attacks[0].InputRecipe
		}
		if got := w.DefaultRecipe(); got != want {
			t.Errorf("%s: DefaultRecipe() = %q, want %q", name, got, want)
		}
	}
	if got := (&Workload{}).DefaultRecipe(); got != "" {
		t.Errorf("empty workload: DefaultRecipe() = %q, want \"\"", got)
	}
}

func TestParseNoise(t *testing.T) {
	for in, want := range map[string]NoiseLevel{"": NoiseLight, "light": NoiseLight, "full": NoiseFull} {
		if got, err := ParseNoise(in); err != nil || got != want {
			t.Errorf("ParseNoise(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"bogus", "Full", " light"} {
		if _, err := ParseNoise(in); err == nil {
			t.Errorf("ParseNoise(%q) accepted an unknown level", in)
		}
	}
}

func TestAttackSpecsWellFormed(t *testing.T) {
	total := 0
	for _, w := range All(NoiseLight) {
		for _, a := range w.Attacks {
			total++
			if a.ID == "" || a.VulnType == "" || a.SubtleInput == "" {
				t.Errorf("%s: incomplete attack spec %+v", w.Name, a)
			}
			if a.Consequence == 0 {
				t.Errorf("%s/%s: no consequence", w.Name, a.ID)
			}
			if a.SiteFunc == "" {
				t.Errorf("%s/%s: no site function", w.Name, a.ID)
			}
			if w.Module.Func(a.SiteFunc) == nil {
				t.Errorf("%s/%s: site function @%s not in module", w.Name, a.ID, a.SiteFunc)
			}
			found := false
			for _, r := range w.Recipes {
				if r.Name == a.InputRecipe {
					found = true
				}
			}
			if !found {
				t.Errorf("%s/%s: recipe %q missing", w.Name, a.ID, a.InputRecipe)
			}
		}
	}
	// The paper reproduces 10 attacks; we model the 10 across 6 programs
	// (4 Apache/MySQL server attacks, Libsafe, SSDB, Chrome, 2 Linux,
	// Apache DoS) — at least 9 distinct AttackSpecs here.
	if total < 9 {
		t.Errorf("modelled attacks = %d, want >= 9", total)
	}
}

func TestNoiseGeneratorShapes(t *testing.T) {
	src := "global @unused = 0\nfunc @main() {\nentry:\n  %r = call @noise_run()\n  %w = call @noise_wait()\n  ret 0\n}\n" +
		genNoise(noiseSpec{adhoc: 2, solid: 3, flaky: 4, flakySpread: 8})
	mod := build("noise", src)
	for seed := uint64(1); seed <= 5; seed++ {
		m, err := interp.New(interp.Config{Module: mod, Sched: sched.NewRandom(seed), MaxSteps: 100000})
		if err != nil {
			t.Fatal(err)
		}
		res := m.Run()
		if res.MaxStepsHit || len(res.Faults) > 0 {
			t.Fatalf("noise-only run misbehaved: steps=%d faults=%v", res.Steps, res.Faults)
		}
	}
}

func TestKernelFlag(t *testing.T) {
	if !Get("linux", NoiseLight).Kernel {
		t.Error("linux workload must be kernel-flagged (SKI detector)")
	}
	for _, n := range []string{"apache", "mysql", "ssdb", "chrome", "libsafe", "memcached"} {
		if Get(n, NoiseLight).Kernel {
			t.Errorf("%s wrongly kernel-flagged", n)
		}
	}
}

func TestPaperNumbersRecorded(t *testing.T) {
	// Table 1 comparison data must be present for EXPERIMENTS.md.
	for _, w := range All(NoiseLight) {
		if w.Name == "memcached" {
			continue // Table 3 only
		}
		if w.PaperRaceReports == 0 {
			t.Errorf("%s: missing paper race-report count", w.Name)
		}
	}
}
