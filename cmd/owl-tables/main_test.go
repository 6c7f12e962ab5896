package main

import (
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
	if shared.Workers != 0 {
		t.Errorf("workers default = %d, want 0 (NumCPU)", shared.Workers)
	}
	if !shared.FailFast {
		t.Error("fail-fast must default on for owl-tables (golden tables cannot degrade)")
	}
	if shared.Predict || shared.PredictReversal {
		t.Error("prediction must default off (golden output is prediction-free)")
	}
	if *own.table != "all" || *own.stable {
		t.Errorf("table/stable defaults wrong: %q %v", *own.table, *own.stable)
	}
}
