package main

import (
	"context"
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// percentile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between the two closest ranks (the "R-7" rule NumPy and
// spreadsheets use). xs need not be sorted and is not modified. An empty
// sample has no percentile and yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 || p < 0 || p > 1 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailSamples is how many samples lie strictly beyond the p-quantile of n
// samples; a tail percentile is only reported as resolved when at least
// ten do.
func tailSamples(n int, p float64) int {
	return int(math.Floor(float64(n)*(1-p) + 1e-9)) // 1e-9 absorbs 1-0.9 != 0.1
}

// Failure reasons a job is counted under.
const (
	failError    = "error"    // the call errored or the job ended failed
	failRefused  = "refused"  // admission refused past the retry budget
	failMismatch = "mismatch" // output differs from the program's reference
)

// tally counts attempted and failed jobs, the failures split by reason.
// It is safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    map[string]int
	first     map[string]string // first failure message per reason
}

func newTally() *tally {
	return &tally{failed: map[string]int{}, first: map[string]string{}}
}

// ok records a job that completed and passed its check.
func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

// fail records a job that failed for reason; msg describes the first one.
func (t *tally) fail(reason, msg string) {
	t.mu.Lock()
	t.attempted++
	t.failed[reason]++
	if _, seen := t.first[reason]; !seen {
		t.first[reason] = msg
	}
	t.mu.Unlock()
}

// counts returns attempted and failed job counts.
func (t *tally) counts() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, n := range t.failed {
		failed += n
	}
	return t.attempted, failed
}

// failedFrac is failed jobs over attempted jobs (0 when nothing ran).
func (t *tally) failedFrac() float64 {
	a, f := t.counts()
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

// merge adds o's counts into t.
func (t *tally) merge(o *tally) {
	o.mu.Lock()
	attempted := o.attempted
	failed := make(map[string]int, len(o.failed))
	for k, v := range o.failed {
		failed[k] = v
	}
	first := make(map[string]string, len(o.first))
	for k, v := range o.first {
		first[k] = v
	}
	o.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += attempted
	for k, v := range failed {
		t.failed[k] += v
		if _, seen := t.first[k]; !seen {
			t.first[k] = first[k]
		}
	}
}

// describe renders the failures for the log ("" when there are none).
func (t *tally) describe() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	reasons := make([]string, 0, len(t.failed))
	for r := range t.failed {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	s := ""
	for _, r := range reasons {
		s += fmt.Sprintf("%d %s (first: %s); ", t.failed[r], r, t.first[r])
	}
	return s
}

// heapSampler records the live Go heap (what a collection found
// reachable) once per GC cycle between start and stop, polling
// runtime/metrics, which does not stop the world. Live heap, unlike heap
// in use, does not swing with where the collector is in its cycle.
type heapSampler struct {
	cancel context.CancelFunc
	done   chan []float64
}

var heapMetrics = []string{"/gc/cycles/total:gc-cycles", "/gc/heap/live:bytes"}

func startHeapSampler(every time.Duration) *heapSampler {
	ctx, cancel := context.WithCancel(context.Background())
	h := &heapSampler{cancel: cancel, done: make(chan []float64, 1)}
	go func() {
		s := make([]metrics.Sample, len(heapMetrics))
		for i, name := range heapMetrics {
			s[i].Name = name
		}
		metrics.Read(s)
		cycle := s[0].Value.Uint64()
		lives := []float64{float64(s[1].Value.Uint64())}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				h.done <- lives
				return
			case <-tick.C:
				metrics.Read(s)
				if c := s[0].Value.Uint64(); c != cycle {
					cycle = c
					lives = append(lives, float64(s[1].Value.Uint64()))
				}
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak live heap in MiB, taken as the
// 99th percentile over the GC cycles: with concurrent jobs the very
// largest value depends on which jobs a collection happened to overlap.
func (h *heapSampler) stop() float64 {
	h.cancel()
	return percentile(<-h.done, 0.99) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
