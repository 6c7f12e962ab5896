// Package inputsearch concretizes OWL's vulnerable input hints: given an
// Algorithm-1 finding (vulnerable site plus the corrupted branches on the
// way) and a description of the program's input space, it searches for a
// concrete input vector that actually drives execution to the site.
//
// The paper stops at hints on purpose — "we did not make this vulnerable
// input hint automatically generate concrete inputs (can be done via
// symbolic execution)" (§1) and lists symbolic execution as an orthogonal
// augmentation (§9). This package implements that augmentation with a
// budgeted guided search instead of an SMT stack: candidates are scored by
// how far along the hint's branch chain execution gets (and whether the
// site is reached under any of a handful of schedules), then refined by
// local mutation. For the input spaces of the modelled workloads this
// concretizes hints in tens of evaluations.
package inputsearch

import (
	"fmt"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/sched"
	"github.com/conanalysis/owl/internal/vuln"
)

// Slot bounds one input word.
type Slot struct {
	Min, Max int64
}

// Space is the program's input space, one Slot per input() word consumed.
type Space []Slot

// Result is the search outcome.
type Result struct {
	Found  bool
	Inputs []int64
	// Evals counts candidate evaluations (each up to Seeds runs).
	Evals int
	// BestScore is the best fitness seen (1.0 = site reached).
	BestScore float64
}

func (r *Result) String() string {
	if r.Found {
		return fmt.Sprintf("inputs %v reach the site (after %d evaluations)", r.Inputs, r.Evals)
	}
	return fmt.Sprintf("no input found in %d evaluations (best score %.2f)", r.Evals, r.BestScore)
}

// Searcher looks for site-reaching inputs.
type Searcher struct {
	// Module/Entry/MaxSteps describe the program (like owl.Program).
	Module   *ir.Module
	Entry    string
	MaxSteps int
	// Space bounds the inputs.
	Space Space
	// Seeds is the number of schedules tried per candidate (default 6):
	// reaching a racy site needs both the right input and a cooperative
	// schedule.
	Seeds int
	// Budget bounds candidate evaluations (default 200).
	Budget int
	// Seed makes the search deterministic (default 1).
	Seed uint64
}

// Search hunts for inputs reaching f.Site.
func (s *Searcher) Search(f *vuln.Finding) (*Result, error) {
	if s.Module == nil || !s.Module.Frozen() {
		return nil, fmt.Errorf("inputsearch: module missing or not frozen")
	}
	if f == nil || f.Site == nil {
		return nil, fmt.Errorf("inputsearch: finding has no site")
	}
	budget := s.Budget
	if budget <= 0 {
		budget = 200
	}
	seeds := s.Seeds
	if seeds <= 0 {
		seeds = 6
	}
	rng := newRNG(s.Seed)

	res := &Result{}
	best := make([]int64, len(s.Space))
	for i, slot := range s.Space {
		best[i] = slot.Min
	}
	bestScore := -1.0

	eval := func(cand []int64) (float64, bool, error) {
		res.Evals++
		top := 0.0
		for i := 0; i < seeds; i++ {
			score, reached, err := s.scoreOnce(f, cand, uint64(i+1))
			if err != nil {
				return 0, false, err
			}
			if reached {
				return 1, true, nil
			}
			if score > top {
				top = score
			}
		}
		return top, false, nil
	}

	consider := func(cand []int64) (bool, error) {
		score, reached, err := eval(cand)
		if err != nil {
			return false, err
		}
		if reached {
			res.Found = true
			res.Inputs = append([]int64(nil), cand...)
			res.BestScore = 1
			return true, nil
		}
		if score > bestScore {
			bestScore = score
			copy(best, cand)
			res.BestScore = score
		}
		return false, nil
	}

	// Phase 1: random sampling.
	sampleBudget := budget / 2
	for res.Evals < sampleBudget {
		cand := make([]int64, len(s.Space))
		for i, slot := range s.Space {
			cand[i] = slot.Min + rng.int63n(slot.Max-slot.Min+1)
		}
		done, err := consider(cand)
		if err != nil {
			return nil, err
		}
		if done {
			return res, nil
		}
	}

	// Phase 2: hill climbing around the best candidate.
	for res.Evals < budget {
		cand := append([]int64(nil), best...)
		if len(cand) == 0 {
			break
		}
		i := int(rng.int63n(int64(len(cand))))
		slot := s.Space[i]
		span := slot.Max - slot.Min + 1
		cand[i] = slot.Min + (cand[i]-slot.Min+rng.int63n(span/2+1)-span/4+span)%span
		done, err := consider(cand)
		if err != nil {
			return nil, err
		}
		if done {
			return res, nil
		}
	}
	return res, nil
}

// scoreOnce runs one schedule with the candidate inputs and scores it:
// 1.0 when the site executes; otherwise the fraction of the finding's
// hint branches that executed (the execution entered the corrupted
// control context even if it diverged before the site).
func (s *Searcher) scoreOnce(f *vuln.Finding, inputs []int64, seed uint64) (float64, bool, error) {
	hintSet := map[*ir.Instr]bool{}
	for _, br := range f.Branches {
		hintSet[br] = true
	}
	executed := map[*ir.Instr]bool{}
	reached := false
	bp := func(m *interp.Machine, t *interp.Thread, in *ir.Instr) interp.BPAction {
		if in == f.Site {
			reached = true
		}
		if hintSet[in] {
			executed[in] = true
		}
		return interp.BPContinue
	}
	maxSteps := s.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 200000
	}
	m, err := interp.New(interp.Config{
		Module: s.Module, Entry: s.Entry, Inputs: inputs, MaxSteps: maxSteps,
		Sched: sched.NewRandom(seed), Breakpoint: bp,
	})
	if err != nil {
		return 0, false, fmt.Errorf("inputsearch: %w", err)
	}
	m.Watch(f.Site)
	for br := range hintSet {
		m.Watch(br)
	}
	m.Run()
	if reached {
		return 1, true, nil
	}
	if len(hintSet) == 0 {
		return 0, false, nil
	}
	return float64(len(executed)) / float64(len(hintSet)), false, nil
}

// rng is the same xorshift64* used elsewhere, kept local for determinism.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 1
	}
	return &rng{state: seed*0x9e3779b97f4a7c15 + 1}
}

func (r *rng) next() uint64 {
	r.state ^= r.state >> 12
	r.state ^= r.state << 25
	r.state ^= r.state >> 27
	return r.state * 0x2545f4914f6cdd1d
}

func (r *rng) int63n(n int64) int64 {
	if n <= 1 {
		return 0
	}
	return int64(r.next()>>1) % n
}
