package main

import (
	"math"
	"strings"
	"testing"

	"github.com/conanalysis/owl/internal/owl"
)

func TestPercentile(t *testing.T) {
	tens := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{tens, 0.5, 5.5},
		{tens, 0.9, 9.1},
		{tens, 0, 1},
		{tens, 1, 10},
		{[]float64{7}, 0.9, 7},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if tens[0] != 10 || tens[9] != 5 {
		t.Errorf("percentile reordered its input: %v", tens)
	}
	for _, p := range []float64{-0.1, 1.1} {
		if !math.IsNaN(percentile(tens, p)) {
			t.Errorf("percentile(p=%v) should be NaN", p)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) || !math.IsNaN(median(nil)) {
		t.Error("percentile of an empty sample should be NaN")
	}
}

func TestTailSamples(t *testing.T) {
	for _, c := range []struct{ n, want int }{{100, 10}, {99, 9}, {250, 25}, {5, 0}} {
		if got := tailSamples(c.n, 0.9); got != c.want {
			t.Errorf("tailSamples(%d, 0.9) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestTally(t *testing.T) {
	a := newTally()
	if a.failedFrac() != 0 {
		t.Fatal("empty tally should have failed fraction 0")
	}
	a.ok()
	a.ok()
	a.fail(failMismatch, "apache: 6 attacks")
	a.fail(failMismatch, "later mismatch")
	b := newTally()
	b.ok()
	b.fail(failRefused, "ssdb")
	a.merge(b)

	att, failed := a.counts()
	if att != 6 || failed != 3 {
		t.Fatalf("counts = %d attempted, %d failed; want 6, 3", att, failed)
	}
	if got := a.failedFrac(); got != 0.5 {
		t.Errorf("failedFrac = %v, want 0.5", got)
	}
	d := a.describe()
	for _, want := range []string{"2 mismatch (first: apache: 6 attacks)", "1 refused (first: ssdb)"} {
		if !strings.Contains(d, want) {
			t.Errorf("describe() = %q, missing %q", d, want)
		}
	}
	if strings.Contains(d, "later mismatch") {
		t.Errorf("describe() should keep only the first message per reason: %q", d)
	}
}

// TestBatchCheck pins the batch correctness rule: the first job must find
// the pair's attack count, and later jobs must reproduce its summary.
func TestBatchCheck(t *testing.T) {
	res := func(attacks, raw int) *owl.Result {
		return &owl.Result{Stats: owl.Stats{VerifiedAttacks: attacks, RawReports: raw}}
	}
	p := &batchCase{prog: &target{name: "mysql/attack"}, seed: 4, attacks: 4}
	if msg := p.check(res(3, 18)); msg == "" {
		t.Fatal("a first job with another seed's attack count passed")
	}
	if p.ref != "" {
		t.Fatal("a failed first job must not become the reference")
	}
	if msg := p.check(res(4, 18)); msg != "" {
		t.Fatalf("first job with the reference count failed: %s", msg)
	}
	if msg := p.check(res(4, 18)); msg != "" {
		t.Fatalf("identical job failed: %s", msg)
	}
	if msg := p.check(res(3, 18)); msg == "" {
		t.Fatal("a job that differs from the reference passed")
	}
	withTime := res(4, 18)
	withTime.Stats.AnalysisTime = 12345
	if msg := p.check(withTime); msg != "" {
		t.Fatalf("the timing line must not count: %s", msg)
	}
}
