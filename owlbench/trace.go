package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval the benchmark recorded around a call into a
// layer. Start and End are offsets from the tracer's epoch; Parent is the
// ID of the enclosing span (0 for a root); Job groups the spans of one
// job or probe.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Job    string        `json:"job"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Tracer keeps spans in memory until the traced pass ends. A nil *Tracer
// records nothing, so untraced passes run the same code.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Add records a finished span and returns its ID (0 on a nil tracer).
func (t *Tracer) Add(name, job string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Name: name, Job: job,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch),
	})
	return id
}

// Begin opens a span and returns the function that closes it; the ID is
// reserved at Begin so children can name their parent while it is open.
func (t *Tracer) Begin(name, job string, parent int) (id int, end func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Now()
	id = t.Add(name, job, parent, start, start)
	return id, func() {
		now := time.Now().Sub(t.epoch)
		t.mu.Lock()
		t.spans[id-1].End = now
		t.mu.Unlock()
	}
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that the union of its direct children covers. Children
// that overlap each other are not double-subtracted, and a child that
// sticks out of its parent only counts inside it.
func selfTimes(spans []Span) map[int]time.Duration {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of the spans.
func covered(lo, hi time.Duration, kids []Span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanStats aggregates spans by name: count, total wall and total self
// time in milliseconds.
type spanStats struct {
	Count  int     `json:"count"`
	WallMS float64 `json:"wall_ms"`
	SelfMS float64 `json:"self_ms"`
}

func aggregate(spans []Span) map[string]*spanStats {
	self := selfTimes(spans)
	out := map[string]*spanStats{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.Count++
		st.WallMS += ms(s.End - s.Start)
		st.SelfMS += ms(self[s.ID])
	}
	return out
}

// meanSelfMS is the mean self time, in ms, of the spans called name.
func meanSelfMS(agg map[string]*spanStats, name string) float64 {
	st := agg[name]
	if st == nil || st.Count == 0 {
		return 0
	}
	return st.SelfMS / float64(st.Count)
}

// writeTrace writes the spans, their per-name aggregate, and the run's
// provenance to path as one JSON document.
func writeTrace(path string, prov provenance, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Provenance provenance            `json:"provenance"`
		ByName     map[string]*spanStats `json:"by_name"`
		Spans      []Span                `json:"spans"`
	}{prov, aggregate(spans), spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
