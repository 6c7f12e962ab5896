package vulnverify_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/owl"
	"github.com/conanalysis/owl/internal/vulnverify"
	"github.com/conanalysis/owl/internal/workloads"
)

// outcomeText renders everything an Outcome reports.
func outcomeText(o *vulnverify.Outcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\nuid=%d exec=%q schedule=%v\n", o, o.UID, o.ExecLog, o.Schedule)
	for _, f := range o.Faults {
		fmt.Fprintf(&b, "fault %s @%d\n", f.Error(), f.Step)
	}
	for _, br := range o.Branches {
		fmt.Fprintf(&b, "branch %s taken=%v x%d\n", br.Branch.Loc(), br.Taken, br.Executions)
	}
	return b.String()
}

// TestBranchWatchOracleCorpus pins the probe-driven branch watcher to
// the former per-step thread walk: every finding the full-noise
// pipeline verifies must get the same Outcome from both step loops.
func TestBranchWatchOracleCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full-noise pipelines take seconds")
	}
	outcomes, branches := 0, 0
	for _, name := range workloads.Names() {
		w := workloads.Get(name, workloads.NoiseFull)
		recipe := ""
		if len(w.Attacks) > 0 {
			recipe = w.Attacks[0].InputRecipe
		}
		p := owl.Program{Module: w.Module, Entry: w.Entry, Inputs: w.Recipe(recipe).Inputs, MaxSteps: w.MaxSteps}
		res, err := owl.Run(p, owl.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mk := func(s interp.Scheduler, bp interp.BreakpointFunc) (*interp.Machine, error) {
			return interp.New(interp.Config{
				Module: p.Module, Entry: p.Entry, Inputs: p.Inputs,
				MaxSteps: p.MaxSteps, Sched: s, Breakpoint: bp,
			})
		}
		for _, got := range res.Outcomes {
			want, err := vulnverify.New().VerifyThreadWalk(mk, got.Finding)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := outcomeText(want), outcomeText(got); a != b {
				t.Fatalf("%s: finding at %s: outcomes diverge\n--- thread walk ---\n%s--- probe ---\n%s",
					name, got.Finding.Site.Loc(), a, b)
			}
			outcomes++
			branches += len(got.Branches)
		}
	}
	if outcomes == 0 || branches == 0 {
		t.Fatalf("vacuous comparison: %d outcomes with %d branch hints", outcomes, branches)
	}
	t.Logf("%d outcomes, %d branch hints identical", outcomes, branches)
}

// TestWatchAllOracleCorpus pins the probe's watched set — the site and
// the hint branches — to a machine watching every instruction, whose
// probe runs at every step as a per-step hook would: every finding the
// pipeline verifies, on every workload at both noise levels and at
// workers 1 and 3, must get the same Outcome from both.
func TestWatchAllOracleCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("pipelines at both noise levels take seconds")
	}
	outcomes := 0
	for _, name := range workloads.Names() {
		for _, lvl := range []workloads.NoiseLevel{workloads.NoiseLight, workloads.NoiseFull} {
			w := workloads.Get(name, lvl)
			recipe := ""
			if len(w.Attacks) > 0 {
				recipe = w.Attacks[0].InputRecipe
			}
			p := owl.Program{Module: w.Module, Entry: w.Entry, Inputs: w.Recipe(recipe).Inputs, MaxSteps: w.MaxSteps}
			mk := func(s interp.Scheduler, bp interp.BreakpointFunc) (*interp.Machine, error) {
				return interp.New(interp.Config{
					Module: p.Module, Entry: p.Entry, Inputs: p.Inputs,
					MaxSteps: p.MaxSteps, Sched: s, Breakpoint: bp,
				})
			}
			for _, workers := range []int{1, 3} {
				res, err := owl.Run(p, owl.Options{Workers: workers})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, got := range res.Outcomes {
					want, err := vulnverify.New().VerifyWatchAll(mk, got.Finding)
					if err != nil {
						t.Fatal(err)
					}
					if a, b := outcomeText(want), outcomeText(got); a != b || !reflect.DeepEqual(want, got) {
						t.Fatalf("%s noise=%d workers=%d: finding at %s: outcomes diverge\n--- every instruction watched ---\n%s--- site and hint branches ---\n%s",
							name, lvl, workers, got.Finding.Site.Loc(), a, b)
					}
					outcomes++
				}
			}
		}
	}
	if outcomes == 0 {
		t.Fatal("vacuous comparison: no outcomes")
	}
}
