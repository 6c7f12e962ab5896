package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"

	"github.com/conanalysis/owl/internal/cliflags"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/owl"
	"github.com/conanalysis/owl/internal/workloads"
)

// Spec is one submission: the program to analyze (a built-in workload or
// an inline .oir source) plus the pipeline options. The options mirror
// the cmd/owl flag set field for field — the same strings -explore
// accepts, validated through the same cliflags helpers — so a
// submission is exactly "a cmd/owl invocation over HTTP" and the parity
// gate can hold the two to byte-identical output.
type Spec struct {
	// Tenant attributes the job for quota accounting ("" = "anonymous").
	Tenant string `json:"tenant,omitempty"`

	// Workload/Recipe/Noise select a built-in workload, mirroring
	// cmd/owl's -workload/-recipe/-noise (recipe "" = the workload's
	// first attack recipe; noise "" = light).
	Workload string `json:"workload,omitempty"`
	Recipe   string `json:"recipe,omitempty"`
	Noise    string `json:"noise,omitempty"`

	// Program is an inline .oir module source, mirroring -file; Inputs
	// mirrors -inputs. Exactly one of Workload and Program must be set.
	Program string  `json:"program,omitempty"`
	Inputs  []int64 `json:"inputs,omitempty"`

	Options SpecOptions `json:"options"`
}

// SpecOptions mirrors the shared cmd/owl flags (internal/cliflags). The
// zero value of every field means "the flag's default", with one serve
// deviation: Explore defaults to "coverage", because resume — the point
// of an always-on service — only exists there. Submissions wanting the
// CLI default ask for "fixed" explicitly.
type SpecOptions struct {
	Explore         string `json:"explore,omitempty"`
	Budget          int    `json:"budget,omitempty"`
	Seed            uint64 `json:"seed,omitempty"`
	Runs            int    `json:"runs,omitempty"` // fixed-mode detect runs (-runs)
	Workers         int    `json:"workers,omitempty"`
	MaxSteps        int    `json:"max_steps,omitempty"`
	Predict         bool   `json:"predict,omitempty"`
	PredictReversal bool   `json:"predict_reversal,omitempty"`
}

// validate normalizes the options through the cliflags validators and
// returns the resolved explore mode.
func (o SpecOptions) validate() (owl.ExploreMode, error) {
	sh := cliflags.Shared{Explore: o.Explore}
	if sh.Explore == "" {
		sh.Explore = string(owl.ExploreCoverage)
	}
	mode, err := sh.Mode()
	if err != nil {
		return "", err
	}
	if o.Budget < 0 || o.Runs < 0 || o.Workers < 0 || o.MaxSteps < 0 {
		return "", fmt.Errorf("negative option values are invalid")
	}
	return mode, nil
}

// resumeEligible reports whether a job with these options participates
// in cross-submission resume: only plain coverage-guided exploration
// feeds and consumes the persistent ExploreState (owl.Options doc).
func (o SpecOptions) resumeEligible() bool {
	return (o.Explore == "" || o.Explore == string(owl.ExploreCoverage)) && !o.Predict
}

// resolve turns a spec into the program identity the store is keyed by:
// the runnable owl.Program, the display name cmd/owl would print, and
// the content-hash key. Workload submissions hash the registry identity
// (name, noise, recipe — the module is a pure function of those);
// inline submissions hash the source text and inputs. Options are NOT
// part of the key on purpose: two submissions of one program at
// different budgets explore one schedule space and must share one
// state.
func resolve(spec Spec) (owl.Program, string, string, error) {
	if (spec.Workload == "") == (spec.Program == "") {
		return owl.Program{}, "", "", fmt.Errorf("exactly one of workload and program must be set")
	}
	h := sha256.New()
	if spec.Program != "" {
		mod, err := ir.Parse("submitted.oir", spec.Program)
		if err != nil {
			return owl.Program{}, "", "", fmt.Errorf("parse program: %w", err)
		}
		h.Write([]byte("oir\x00"))
		h.Write([]byte(spec.Program))
		h.Write([]byte{0})
		var buf [8]byte
		for _, in := range spec.Inputs {
			binary.LittleEndian.PutUint64(buf[:], uint64(in))
			h.Write(buf[:])
		}
		prog := owl.Program{Module: mod, Inputs: spec.Inputs, MaxSteps: 500000}
		return prog, "submitted.oir", hex.EncodeToString(h.Sum(nil)), nil
	}
	if len(spec.Inputs) > 0 {
		return owl.Program{}, "", "", fmt.Errorf("inputs are only valid with an inline program (workloads carry recipes)")
	}
	noise := spec.Noise
	if noise == "" {
		noise = "light"
	}
	if noise != "light" && noise != "full" {
		return owl.Program{}, "", "", fmt.Errorf("unknown noise %q (want light or full)", spec.Noise)
	}
	lvl := workloads.NoiseLight
	if noise == "full" {
		lvl = workloads.NoiseFull
	}
	w := workloads.Get(spec.Workload, lvl)
	if w == nil {
		return owl.Program{}, "", "", fmt.Errorf("unknown workload %q", spec.Workload)
	}
	recipe := spec.Recipe
	if recipe == "" {
		if len(w.Attacks) > 0 {
			recipe = w.Attacks[0].InputRecipe
		} else if len(w.Recipes) > 0 {
			recipe = w.Recipes[0].Name
		}
	}
	rec := w.Recipe(recipe)
	fmt.Fprintf(h, "workload\x00%s\x00%s\x00%s", w.Name, noise, rec.Name)
	prog := owl.Program{Module: w.Module, Entry: w.Entry, Inputs: rec.Inputs, MaxSteps: w.MaxSteps}
	return prog, fmt.Sprintf("%s/%s", w.Name, rec.Name), hex.EncodeToString(h.Sum(nil)), nil
}

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// JobStatus is the wire representation of a job, returned by the status
// endpoint and streamed as SSE event payloads.
type JobStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Tenant string `json:"tenant"`
	// Key is the program's content hash — submissions sharing it share
	// one accumulated exploration state.
	Key   string `json:"key"`
	Name  string `json:"name"`
	Shard int    `json:"shard"`
	// Resume reports whether the job started against warm state (a prior
	// exploration of the same program had been absorbed).
	Resume bool       `json:"resume"`
	Error  string     `json:"error,omitempty"`
	Result *JobResult `json:"result,omitempty"`
}

// JobResult is the completed-job payload.
type JobResult struct {
	// SummaryText is byte-identical to what cmd/owl prints for the same
	// program and options on a fresh state (report.Text).
	SummaryText     string `json:"summary_text"`
	RawReports      int    `json:"raw_reports"`
	Remaining       int    `json:"remaining"`
	Findings        int    `json:"findings"`
	VerifiedAttacks int    `json:"verified_attacks"`
	// ExecutedSchedules is the owl.detect_runs count — the number the
	// resume gate requires to shrink on repeat submissions.
	ExecutedSchedules int64 `json:"executed_schedules"`
	// NewReports/KnownReports split this submission's raw reports by
	// whether the store had already recorded them; StoreReports is the
	// accumulated deduplicated total for the program.
	NewReports   int `json:"new_reports"`
	KnownReports int `json:"known_reports"`
	StoreReports int `json:"store_reports"`
	// Submissions counts completed jobs for this program, this one
	// included.
	Submissions int     `json:"submissions"`
	ElapsedMS   float64 `json:"elapsed_ms"`
}

// Job is one accepted submission moving through a shard queue.
type Job struct {
	spec  Spec
	ps    *programState
	shard int

	mu     sync.Mutex
	status JobStatus
	subs   map[chan JobStatus]struct{}
	done   chan struct{}

	// mc is the job-local collector; it feeds the stream's progress
	// events while the pipeline runs and is merged into the server
	// collector when the job finishes.
	mc *metrics.Collector
}

func newJob(id string, spec Spec, ps *programState, shard int) *Job {
	return &Job{
		spec:  spec,
		ps:    ps,
		shard: shard,
		status: JobStatus{
			ID: id, State: StateQueued, Tenant: spec.Tenant,
			Key: ps.key, Name: ps.name, Shard: shard,
		},
		subs: make(map[chan JobStatus]struct{}),
		done: make(chan struct{}),
		mc:   metrics.New(),
	}
}

// Status returns a copy of the job's current wire state.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// update mutates the status under the lock and publishes the new state
// to every subscriber (non-blocking: a slow stream consumer misses
// intermediate states but always sees the terminal one via done).
func (j *Job) update(f func(*JobStatus)) {
	j.mu.Lock()
	f(&j.status)
	st := j.status
	terminal := st.State == StateDone || st.State == StateFailed
	for ch := range j.subs {
		select {
		case ch <- st:
		default:
		}
	}
	j.mu.Unlock()
	if terminal {
		close(j.done)
	}
}

// subscribe registers a status channel; cancel unregisters it.
func (j *Job) subscribe() (<-chan JobStatus, func()) {
	ch := make(chan JobStatus, 8)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}
