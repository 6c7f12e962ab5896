package owl

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"regexp"
	"strings"
	"testing"

	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/workloads"
)

var updateDetectPin = flag.Bool("update-detect-pin", false, "rewrite testdata/golden/detect-stages.txt from the current code")

const detectPinFixture = "../../testdata/golden/detect-stages.txt"

// schedVector matches a hint's or outcome's witness schedule, which the
// fixture stores as a hash to stay readable.
var schedVector = regexp.MustCompile(`sched=\[[^\]]*\]`)

func hashSched(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("sched=#%016x", h.Sum64())
}

// TestDetectStagesPinned pins every detect-stage arm — the fixed loop,
// coverage-guided exploration and predictive detection, each with and
// without the atomicity detector — on every application workload with
// its default recipe: the full Result fingerprint plus every counter and
// gauge must match the committed fixture at workers 1 and 3. Witness
// schedules are stored hashed, and the wall-clock bytecode.compile_ns
// gauge is the only metric left out. Regenerate with -update-detect-pin
// only for an intentional output change.
func TestDetectStagesPinned(t *testing.T) {
	modes := []struct {
		name string
		opts Options
	}{
		{"fixed", Options{}},
		{"fixed+atomicity", Options{EnableAtomicity: true}},
		{"coverage", Options{Explore: ExploreCoverage, Budget: 16, Seed: 3}},
		{"coverage+atomicity", Options{Explore: ExploreCoverage, Budget: 16, Seed: 3, EnableAtomicity: true}},
		{"predict", Options{Predict: true, Budget: 16, Seed: 3}},
		{"predict+reversal+atomicity", Options{Predict: true, PredictReversal: true, EnableAtomicity: true, Budget: 24, Seed: 1}},
	}
	var got strings.Builder
	for _, name := range workloads.Names() {
		w := workloads.Get(name, workloads.NoiseLight)
		if w.Kernel {
			continue
		}
		p := Program{Module: w.Module, Entry: w.Entry, Inputs: w.Recipe(w.DefaultRecipe()).Inputs, MaxSteps: w.MaxSteps}
		for _, mode := range modes {
			var base string
			for _, workers := range []int{1, 3} {
				opts := mode.opts
				opts.Workers = workers
				opts.Metrics = metrics.New()
				res, err := Run(p, opts)
				if err != nil {
					t.Fatalf("%s %s workers=%d: %v", w.Name, mode.name, workers, err)
				}
				var b strings.Builder
				fmt.Fprintf(&b, "== %s %s\n%s", w.Name, mode.name,
					schedVector.ReplaceAllStringFunc(fingerprint(res), hashSched))
				for _, line := range strings.SplitAfter(countersOf(opts.Metrics), "\n") {
					if !strings.HasPrefix(line, "bytecode.compile_ns=") {
						b.WriteString(line)
					}
				}
				if workers == 1 {
					base = b.String()
					got.WriteString(base)
				} else if b.String() != base {
					t.Errorf("%s %s: workers=%d differs from workers=1:\n%s\nvs\n%s",
						w.Name, mode.name, workers, b.String(), base)
				}
			}
		}
	}
	if *updateDetectPin {
		if err := os.WriteFile(detectPinFixture, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(detectPinFixture)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("detect stages drifted from %s at line %d:\n got: %s\nwant: %s", detectPinFixture, i+1, g, w)
			}
		}
	}
}
