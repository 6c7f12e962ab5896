package main

import (
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
	if shared.Workers != 1 {
		t.Errorf("workers default = %d, want 1 (sequential)", shared.Workers)
	}
	if shared.FailFast {
		t.Error("fail-fast must default off for cmd/owl (pipeline degrades)")
	}
	if shared.Predict || shared.PredictReversal {
		t.Error("prediction must default off")
	}
	if *own.detectRuns != 8 {
		t.Errorf("runs default = %d, want 8", *own.detectRuns)
	}
	if *own.cpuProfile != "" || *own.memProfile != "" {
		t.Error("profiling must default off")
	}
}
