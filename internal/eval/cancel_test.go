package eval

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/conanalysis/owl/internal/workloads"
)

// TestParallelCancelsInFlightWorkloads checks the failure of one
// workload releases the slots of workloads that are already running,
// not just the ones still queued: the siblings here hold their slot
// until the pool's context is canceled, so the build can only finish
// promptly if the cancellation actually reaches them.
func TestParallelCancelsInFlightWorkloads(t *testing.T) {
	names := workloads.Names()
	evalWorkloadFn = func(w *workloads.Workload, cfg Config) (*ProgramEval, error) {
		if w.Name == names[0] {
			return nil, fmt.Errorf("injected failure")
		}
		select {
		case <-cfg.Pipeline.Ctx.Done():
			return nil, cfg.Pipeline.Ctx.Err()
		case <-time.After(30 * time.Second):
			return nil, fmt.Errorf("worker slot never released")
		}
	}
	defer func() { evalWorkloadFn = EvalWorkload }()

	start := time.Now()
	_, err := BuildTablesParallel(Config{Noise: workloads.NoiseLight}, len(names))
	if err == nil {
		t.Fatal("want injected error")
	}
	if !strings.Contains(err.Error(), names[0]) || !strings.Contains(err.Error(), "eval:") {
		t.Errorf("error %q should name the failed workload %q and its stage", err, names[0])
	}
	if time.Since(start) > 20*time.Second {
		t.Fatal("in-flight workloads were not canceled; pool waited for the 30s stall")
	}
}

// TestParallelQuarantinesPanickingWorkload checks a panicking evaluation
// is contained by the supervisor and reported with the workload name and
// the recovered reason, instead of killing the process or surfacing as a
// bare cancellation.
func TestParallelQuarantinesPanickingWorkload(t *testing.T) {
	names := workloads.Names()
	evalWorkloadFn = func(w *workloads.Workload, cfg Config) (*ProgramEval, error) {
		if w.Name == names[0] {
			panic("corrupt workload model")
		}
		select {
		case <-cfg.Pipeline.Ctx.Done():
			return nil, cfg.Pipeline.Ctx.Err()
		case <-time.After(30 * time.Second):
			return nil, fmt.Errorf("worker slot never released")
		}
	}
	defer func() { evalWorkloadFn = EvalWorkload }()

	_, err := BuildTablesParallel(Config{Noise: workloads.NoiseLight}, len(names))
	if err == nil {
		t.Fatal("want quarantine error")
	}
	if !strings.Contains(err.Error(), names[0]) || !strings.Contains(err.Error(), "corrupt workload model") {
		t.Errorf("error %q should name workload %q and the recovered panic", err, names[0])
	}
}
