package main

import "testing"

// TestRotationIsEven pins serve-mixed's traffic: every cycle submits each
// program four times, once as a new copy, and every fourth submission is
// a new copy.
func TestRotationIsEven(t *testing.T) {
	for c := int64(0); c < 3; c++ {
		repeats := make([]int, len(servePrograms))
		colds := make([]int, len(servePrograms))
		for k := c * cycleLen; k < (c+1)*cycleLen; k++ {
			prog, cold := slotAt(k)
			if cold {
				colds[prog]++
			} else {
				repeats[prog]++
			}
		}
		for p := range servePrograms {
			if repeats[p] != 3 || colds[p] != 1 {
				t.Errorf("cycle %d: %s has %d repeats and %d new copies, want 3 and 1", c, servePrograms[p], repeats[p], colds[p])
			}
		}
	}
	for start := int64(0); start < cycleLen; start += 4 {
		colds := 0
		for k := start; k < start+4; k++ {
			if _, cold := slotAt(k); cold {
				colds++
			}
		}
		if colds != 1 {
			t.Errorf("submissions %d-%d hold %d new copies, want 1", start, start+3, colds)
		}
	}
	for _, c := range []struct{ k, want int64 }{{0, 0}, {1, 16}, {16, 16}, {17, 32}} {
		if got := roundUp(c.k, cycleLen); got != c.want {
			t.Errorf("roundUp(%d) = %d, want %d", c.k, got, c.want)
		}
	}
}
