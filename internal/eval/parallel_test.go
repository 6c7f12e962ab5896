package eval

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/owl"
	"github.com/conanalysis/owl/internal/workloads"
)

// TestParallelFailsFastInRegistryOrder injects a failure into every
// workload evaluation and checks two things: the pool drains instead of
// evaluating the whole registry, and the error reported is the failed
// workload earliest in registry order (not whichever worker lost the
// race), so multi-failure runs are deterministic.
func TestParallelFailsFastInRegistryOrder(t *testing.T) {
	var evaluated atomic.Int32
	evalWorkloadFn = func(w *workloads.Workload, cfg Config) (*ProgramEval, error) {
		evaluated.Add(1)
		return nil, fmt.Errorf("injected failure")
	}
	defer func() { evalWorkloadFn = EvalWorkload }()

	_, err := BuildTablesParallel(Config{Noise: workloads.NoiseLight}, 2)
	if err == nil {
		t.Fatal("want injected error")
	}
	first := workloads.Names()[0]
	if !strings.Contains(err.Error(), first) {
		t.Errorf("error %q should name the registry-first workload %q", err, first)
	}
	if n := int(evaluated.Load()); n >= len(workloads.Names()) {
		t.Errorf("evaluated %d workloads after first failure; pool did not drain", n)
	}
}

// TestParallelTablesMetrics checks the collector threads through the
// parallel build: pool stages from eval, pipeline stages from owl, and
// study stages from the overlapped study run all land in one snapshot.
func TestParallelTablesMetrics(t *testing.T) {
	mc := metrics.New()
	cfg := Config{Noise: workloads.NoiseLight, Pipeline: owl.Options{DetectRuns: 4, Metrics: mc}}
	tb, err := BuildTablesParallel(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Study == nil {
		t.Fatal("overlapped study run produced no result")
	}
	if tb.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
	rep := mc.Snapshot()
	got := map[string]bool{}
	for _, s := range rep.Stages {
		got[s.Name] = true
	}
	for _, want := range []string{"eval.total", "eval.workloads", "owl.detect", "study.total"} {
		if !got[want] {
			t.Errorf("stage %q missing from snapshot (have %v)", want, rep.Stages)
		}
	}
}
