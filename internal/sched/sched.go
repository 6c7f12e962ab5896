// Package sched provides deterministic thread schedulers for the
// interpreter: round-robin, seeded random, PCT-style priority scheduling,
// recorded-schedule replay, and an exhaustive DFS explorer used by the
// SKI-style kernel detector. All schedulers are deterministic functions of
// their construction parameters, which is what makes OWL's replay-based
// verification possible.
package sched

import (
	"math"
	"slices"

	"github.com/conanalysis/owl/internal/interp"
)

// RoundRobin cycles through runnable threads, switching threads every
// Quantum steps (default 1, i.e. fully interleaved).
type RoundRobin struct {
	Quantum int
	last    interp.ThreadID
	used    int
}

// NewRoundRobin returns a round-robin scheduler with the given quantum.
func NewRoundRobin(quantum int) *RoundRobin {
	if quantum < 1 {
		quantum = 1
	}
	return &RoundRobin{Quantum: quantum, last: -1}
}

// Next implements interp.Scheduler: hold last while the quantum allows,
// otherwise the first runnable id strictly greater than last, wrapping.
func (s *RoundRobin) Next(runnable []interp.ThreadID, step int) interp.ThreadID {
	if s.last >= 0 && s.used < s.Quantum {
		for _, id := range runnable {
			if id == s.last {
				s.used++
				return id
			}
		}
	}
	next := runnable[0]
	for _, id := range runnable {
		if id > s.last {
			next = id
			break
		}
	}
	s.last, s.used = next, 1
	return next
}

// rng is a self-contained xorshift64* PRNG; math/rand would also be
// deterministic, but an explicit state keeps the schedule a pure function
// of the seed across Go versions.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{state: seed}
}

func (r *rng) next() uint64 {
	r.state ^= r.state >> 12
	r.state ^= r.state << 25
	r.state ^= r.state >> 27
	return r.state * 0x2545f4914f6cdd1d
}

func (r *rng) intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// Random picks a uniformly random runnable thread each step, seeded.
// Its generator is held by value, so copying a Random copies its state.
type Random struct{ r rng }

// NewRandom returns a seeded random scheduler.
func NewRandom(seed uint64) *Random { return &Random{r: *newRNG(seed)} }

// Clone returns a scheduler whose generator continues from s's current
// state; the two draw independently from then on.
func (s *Random) Clone() *Random {
	c := *s
	return &c
}

// Next implements interp.Scheduler.
func (s *Random) Next(runnable []interp.ThreadID, step int) interp.ThreadID {
	return runnable[s.r.intn(len(runnable))]
}

// PCT approximates the PCT algorithm (Burckhardt et al.): threads get
// random priorities; the highest-priority runnable thread runs, and at d-1
// random step indices the running thread's priority is demoted below all
// others. Small d finds most races with high probability.
//
// State is dense: prio is indexed by ThreadID, with 0 meaning "not drawn
// yet" (drawn priorities are >= 1<<20, demoted ones <= -1), and demoteAt
// holds the d-1 demotion steps, deduplicated. Priorities are drawn lazily
// by Next, in runnable order, so the generator's draw order is a pure
// function of the schedule.
type PCT struct {
	r          *rng
	prio       []int
	demoteAt   []int
	demoteBase int
}

// NewPCT returns a PCT scheduler with depth d over maxSteps steps.
func NewPCT(seed uint64, d, maxSteps int) *PCT {
	p := &PCT{r: newRNG(seed)}
	for i := 0; i < d-1; i++ {
		if maxSteps > 0 {
			if at := p.r.intn(maxSteps); !slices.Contains(p.demoteAt, at) {
				p.demoteAt = append(p.demoteAt, at)
			}
		}
	}
	return p
}

// draw gives id its random initial priority, in the high band, on
// first sight.
func (s *PCT) draw(id interp.ThreadID) {
	if int(id) >= len(s.prio) {
		s.prio = append(s.prio, make([]int, int(id)+1-len(s.prio))...)
	}
	if s.prio[id] == 0 {
		s.prio[id] = (1 << 20) + s.r.intn(1<<20)
	}
}

// top returns the highest-priority runnable thread, ties going to the
// first in runnable order. Every runnable priority must be drawn.
func (s *PCT) top(runnable []interp.ThreadID) interp.ThreadID {
	best := runnable[0]
	for _, id := range runnable[1:] {
		if s.prio[id] > s.prio[best] {
			best = id
		}
	}
	return best
}

// Next implements interp.Scheduler.
func (s *PCT) Next(runnable []interp.ThreadID, step int) interp.ThreadID {
	for _, id := range runnable {
		s.draw(id)
	}
	best := s.top(runnable)
	if slices.Contains(s.demoteAt, step) {
		s.demoteBase--
		s.prio[best] = s.demoteBase
		best = s.top(runnable) // re-pick after demotion
	}
	return best
}

// Hold implements interp.HoldingScheduler. Between draws and demotions
// Next is stateless and picks the top-priority runnable thread, a
// function of the runnable set alone, so it is held until the next
// demotion step. Hold declines when a runnable thread has no priority
// yet or step itself demotes: both change state, which Next must do.
// A machine that cannot fast-forward runs its holds as windows all the
// same.
func (s *PCT) Hold(runnable []interp.ThreadID, step int) (interp.ThreadID, int, bool) {
	for _, id := range runnable {
		if int(id) >= len(s.prio) || s.prio[id] == 0 {
			return 0, 0, false
		}
	}
	until := math.MaxInt
	for _, at := range s.demoteAt {
		if at >= step && at < until {
			until = at
		}
	}
	if until == step {
		return 0, 0, false
	}
	return s.top(runnable), until, true
}

// Skip implements interp.HoldingScheduler. A hold's picks change no
// state.
func (s *PCT) Skip(runnable []interp.ThreadID, step, k int) {}

// Replay replays a recorded schedule exactly; once the recording is
// exhausted (or the recorded thread is not runnable — which can happen
// when a verifier perturbs the run), it falls back to the supplied
// scheduler (default: round-robin).
type Replay struct {
	Trace    []interp.ThreadID
	Fallback interp.Scheduler
	pos      int
	// Diverged reports whether the replay ever had to fall back.
	Diverged bool
}

// NewReplay returns a replay scheduler over the recorded trace.
func NewReplay(trace []interp.ThreadID) *Replay {
	return &Replay{Trace: trace, Fallback: NewRoundRobin(1)}
}

// Next implements interp.Scheduler.
func (s *Replay) Next(runnable []interp.ThreadID, step int) interp.ThreadID {
	if s.pos < len(s.Trace) {
		want := s.Trace[s.pos]
		s.pos++
		for _, id := range runnable {
			if id == want {
				return id
			}
		}
		s.Diverged = true
	}
	if s.Fallback == nil {
		s.Fallback = NewRoundRobin(1)
	}
	return s.Fallback.Next(runnable, step)
}
