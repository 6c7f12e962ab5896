package main

import (
	"encoding/json"
	"os"
	"testing"

	"github.com/conanalysis/owl/internal/cliflags"
)

// TestSharedFlagParity pins this binary to the canonical shared flag set:
// every flag in cliflags.Names() must exist here. This binary is the one
// that drifted (no -seed, -fail-fast, or -max-steps before the shared
// helper existed), so the gate lives on both binaries.
func TestSharedFlagParity(t *testing.T) {
	fs, _, _ := flags()
	for _, name := range cliflags.Names() {
		if fs.Lookup(name) == nil {
			t.Errorf("cmd/owl-tables is missing shared flag -%s", name)
		}
	}
}

// TestOwnDefaults pins the per-binary defaults the golden fixture depends
// on: full noise, NumCPU fan-out, and fail-fast evaluation (a degraded
// stage would silently skew a table row).
func TestOwnDefaults(t *testing.T) {
	fs, shared, own := flags()
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if shared.Noise != "full" {
		t.Errorf("noise default = %q, want full", shared.Noise)
	}
	if shared.Pipeline.Workers != 0 {
		t.Errorf("workers default = %d, want 0 (NumCPU)", shared.Pipeline.Workers)
	}
	if !shared.Pipeline.FailFast {
		t.Error("fail-fast must default on for owl-tables (golden tables cannot degrade)")
	}
	if shared.Pipeline.Predict || shared.Pipeline.PredictReversal {
		t.Error("prediction must default off (golden output is prediction-free)")
	}
	if *own.table != "all" || *own.stable {
		t.Errorf("table/stable defaults wrong: %q %v", *own.table, *own.stable)
	}
}

// TestNoiseRejectsUnknown pins that an unknown -noise is an error; it
// used to build the full-noise tables silently.
func TestNoiseRejectsUnknown(t *testing.T) {
	if err := run([]string{"-noise", "bogus"}); err == nil {
		t.Error("-noise bogus accepted")
	}
}

// TestRejectsInvalidOptions sends the shared table of invalid option
// values (testdata/invalid-options.json, also sent to cmd/owl and to
// owl-serve's POST /v1/jobs) through run. A case applies here when every
// flag it sets is one this binary shares with cmd/owl; each such case
// must be an error.
func TestRejectsInvalidOptions(t *testing.T) {
	buf, err := os.ReadFile("../../testdata/invalid-options.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Name  string
		Flags []string
	}
	if err := json.Unmarshal(buf, &cases); err != nil {
		t.Fatal(err)
	}
	shared := map[string]bool{}
	for _, name := range cliflags.Names() {
		shared["-"+name] = true
	}
	applied := 0
cases:
	for _, c := range cases {
		for i := 0; i < len(c.Flags); i += 2 {
			if !shared[c.Flags[i]] {
				continue cases
			}
		}
		applied++
		if err := run(append([]string{"-noise", "light"}, c.Flags...)); err == nil {
			t.Errorf("%s: %v accepted", c.Name, c.Flags)
		}
	}
	if applied == 0 {
		t.Error("no case applies to owl-tables")
	}
}
