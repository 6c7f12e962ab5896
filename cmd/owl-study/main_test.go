package main

import "testing"

// TestNoiseRejectsUnknown pins that an unknown -noise is an error; it
// used to run the light-noise study silently.
func TestNoiseRejectsUnknown(t *testing.T) {
	if err := run([]string{"-noise", "bogus"}); err == nil {
		t.Error("-noise bogus accepted")
	}
}
