package main

import (
	"testing"
	"time"
)

func span(id, parent int, name string, start, end time.Duration) Span {
	return Span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		span(1, 0, "job", 0, 100),
		span(2, 1, "a", 10, 30),
		span(3, 1, "b", 20, 50),  // overlaps a: the union counts once
		span(4, 1, "c", 90, 120), // sticks out of the job: only 90..100 counts
		span(5, 2, "a.child", 12, 28),
		span(6, 0, "lone", 5, 9),
		span(7, 1, "empty", 60, 60),
	}
	got := selfTimes(spans)
	want := map[int]time.Duration{1: 50, 2: 4, 3: 30, 4: 30, 5: 16, 6: 4, 7: 0}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self(%d) = %v, want %v", id, got[id], w)
		}
	}
}

func TestAggregate(t *testing.T) {
	spans := []Span{
		span(1, 0, "owl.Run", 0, 100*time.Millisecond),
		span(2, 1, "owl.detect", 0, 60*time.Millisecond),
		span(3, 0, "owl.Run", 200*time.Millisecond, 300*time.Millisecond),
		span(4, 3, "owl.detect", 200*time.Millisecond, 290*time.Millisecond),
	}
	agg := aggregate(spans)
	run := agg["owl.Run"]
	if run.Count != 2 || run.WallMS != 200 || run.SelfMS != 50 {
		t.Errorf("owl.Run aggregate = %+v, want 2 spans, 200ms wall, 50ms self", *run)
	}
	if got := meanSelfMS(agg, "owl.Run"); got != 25 {
		t.Errorf("mean self = %v, want 25", got)
	}
	if got := meanSelfMS(agg, "missing"); got != 0 {
		t.Errorf("mean self of an absent span = %v, want 0", got)
	}
}

func TestTracer(t *testing.T) {
	var none *Tracer
	if id := none.Add("x", "j", 0, time.Now(), time.Now()); id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
	if _, end := none.Begin("x", "j", 0); end == nil {
		t.Error("nil tracer returned a nil end func")
	} else {
		end()
	}
	if none.Spans() != nil {
		t.Error("nil tracer has spans")
	}

	tr := newTracer()
	root, end := tr.Begin("probe", "p", 0)
	start := time.Now()
	child := tr.Add("step", "p", root, start, start.Add(time.Millisecond))
	end()
	spans := tr.Spans()
	if len(spans) != 2 || spans[child-1].Parent != root {
		t.Fatalf("spans = %+v", spans)
	}
	if r := spans[root-1]; r.End < r.Start || r.End < spans[child-1].Start {
		t.Errorf("root span was not closed after its child started: %+v", r)
	}
}
