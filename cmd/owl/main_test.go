package main

import (
	"encoding/json"
	"os"
	"testing"

	"github.com/conanalysis/owl/internal/cliflags"
)

// TestSharedFlagParity pins this binary to the canonical shared flag set:
// every flag in cliflags.Names() must exist here, so the binaries cannot
// drift apart again (cmd/owl-tables once lacked -seed, -fail-fast, and
// -max-steps).
func TestSharedFlagParity(t *testing.T) {
	fs, _, _ := flags()
	for _, name := range cliflags.Names() {
		if fs.Lookup(name) == nil {
			t.Errorf("cmd/owl is missing shared flag -%s", name)
		}
	}
}

// TestOwnDefaults pins the per-binary defaults golden output depends on.
func TestOwnDefaults(t *testing.T) {
	fs, shared, own := flags()
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if shared.Noise != "light" {
		t.Errorf("noise default = %q, want light", shared.Noise)
	}
	if shared.Pipeline.Workers != 0 {
		t.Errorf("workers default = %d, want 0 (GOMAXPROCS; output is the same for every width)", shared.Pipeline.Workers)
	}
	if shared.Pipeline.FailFast {
		t.Error("fail-fast must default off for cmd/owl (pipeline degrades)")
	}
	if shared.Pipeline.Predict || shared.Pipeline.PredictReversal {
		t.Error("prediction must default off")
	}
	if shared.Pipeline.DetectRuns != 8 {
		t.Errorf("runs default = %d, want 8", shared.Pipeline.DetectRuns)
	}
	if *own.cpuProfile != "" || *own.memProfile != "" {
		t.Error("profiling must default off")
	}
}

// TestNoiseRejectsUnknown pins that an unknown -noise is an error; it
// used to run light noise silently.
func TestNoiseRejectsUnknown(t *testing.T) {
	if err := run([]string{"-workload", "libsafe", "-noise", "bogus"}); err == nil {
		t.Error("-noise bogus accepted")
	}
}

// TestRejectsInvalidOptions sends the shared table of invalid option
// values (testdata/invalid-options.json, also sent to owl-tables and to
// owl-serve's POST /v1/jobs) through run: every case must be an error.
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
	for _, c := range cases {
		if err := run(append([]string{"-workload", "libsafe"}, c.Flags...)); err == nil {
			t.Errorf("%s: %v accepted", c.Name, c.Flags)
		}
	}
}
