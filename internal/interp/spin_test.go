package interp_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/sched"
)

// lowest always picks the lowest runnable thread ID, and holds it.
type lowest struct{}

func (lowest) Next(runnable []interp.ThreadID, step int) interp.ThreadID { return runnable[0] }

func (lowest) Hold(runnable []interp.ThreadID, step int) (interp.ThreadID, int, bool) {
	return runnable[0], math.MaxInt, true
}

func (lowest) Skip(runnable []interp.ThreadID, step, k int) {}

// sticky keeps the last thread while it stays runnable, else takes the
// lowest runnable ID: the shape of a decision scheduler past its vector.
type sticky struct {
	last    interp.ThreadID
	hasLast bool
}

func (s *sticky) Next(runnable []interp.ThreadID, step int) interp.ThreadID {
	if !s.hasLast || !slices.Contains(runnable, s.last) {
		s.last, s.hasLast = runnable[0], true
	}
	return s.last
}

func (s *sticky) Hold(runnable []interp.ThreadID, step int) (interp.ThreadID, int, bool) {
	if !s.hasLast || !slices.Contains(runnable, s.last) {
		return 0, 0, false
	}
	return s.last, math.MaxInt, true
}

func (s *sticky) Skip(runnable []interp.ThreadID, step, k int) {}

// spinPrelude is the harness of the spin programs: @spinner spins on
// @flag through @loop, which each program supplies; @setter sleeps,
// then sets the flag; @racer, spawned only where a program asks for it,
// writes the flag with no synchronization. main spawns them, joins the
// spinner and the setter and prints what @tail returns (@cnt, unless
// the program says otherwise). Under lowest, the racer runs first, the
// setter goes to sleep, and the spinner spins until the setter's wake.
const spinPrelude = `
global @flag = 0
global @shadow = 0
global @cnt = 0
func @spinner() {
entry:
  jmp loop
loop:
  %f = call @loop()
  %c = icmp eq %f, 0
  br %c, loop, done
done:
  ret 0
}
func @setter() {
entry:
  call @io_delay(%DELAY%)
  store 1, @flag
  ret 0
}
func @racer() {
entry:
  store 0, @flag
  ret 0
}
func @main() {
entry:
%RACER%  %b = call @spawn(@setter)
  %a = call @spawn(@spinner)
  %ra = call @join(%a)
  %rb = call @join(%b)
  %v = call @tail()
  call @print(%v)
  ret 0
}
func @tail() {
entry:
%TAIL%
}
`

// mk names a scheduler constructor.
type mk struct {
	name string
	new  func() interp.Scheduler
}

// spinMakers returns the holding schedulers the spin tests run under:
// the two test schedulers and PCT over base steps at several seeds and
// depths.
func spinMakers(base int) []mk {
	makers := []mk{
		{"lowest", func() interp.Scheduler { return lowest{} }},
		{"sticky", func() interp.Scheduler { return &sticky{} }},
	}
	for seed := uint64(1); seed <= 6; seed++ {
		for _, d := range []int{1, 2, 4} {
			seed, d := seed, d
			makers = append(makers, mk{fmt.Sprintf("pct-s%d-d%d", seed, d), func() interp.Scheduler { return sched.NewPCT(seed, d, base) }})
		}
	}
	return makers
}

// spinCase is one adversarial spin program. skip says whether RunLoop
// must never fast-forward it ("never"), or must do so in at least one
// run ("some"); cut, when set, requires a run that fast-forwarded and
// still ended before MaxSteps, the spin cut by what the case names.
type spinCase struct {
	name  string
	src   string // the @loop function and anything it calls; then the whole program
	delay int    // the setter's sleep
	skip  string
	cut   string
	// observedOnly narrows "never" to the runs with a race detector
	// under the scheduler it names (the one that runs the racer before
	// the spin): the spin itself is harmless to skip, but each of its
	// reads races and counts.
	observedOnly string
	// racer spawns a thread that writes @flag racily before the spin.
	racer bool
	// tail is @tail's body, when it is not the default.
	tail string
}

// TestSpinFastForwardExact runs hand-built spin programs under holding
// schedulers (PCT over the whole step bound at several depths, and two
// test schedulers that hold a thread) and checks each RunLoop run
// against its Step reference, with and without a race detector and a
// coverage recorder, at a range of step bounds so that a spin's turns
// end at every offset of MaxSteps. Spins that must not be skipped —
// whose turns change memory, the random generator or a report's Count —
// must never fast-forward; the others must, and some must be cut short
// by a sleeper's wake or a PCT demotion, others run to MaxSteps.
func TestSpinFastForwardExact(t *testing.T) {
	const base = 3000
	cases := []spinCase{
		{name: "pure", skip: "some", cut: "wake", delay: 400, src: `
func @loop() {
entry:
  %f = load @flag
  ret %f
}`},
		{name: "inline", skip: "some", cut: "demotion", delay: 0, src: `
func @loop() {
entry:
  jmp spin
spin:
  %f = load @flag
  %c = icmp eq %f, 0
  br %c, spin, out
out:
  ret %f
}`},
		{name: "nested", skip: "some", delay: 400, src: `
func @loop() {
entry:
  jmp inner
inner:
  %i = phi [entry: 0], [inner: %i2]
  %i2 = add %i, 1
  %c = icmp lt %i2, 3
  br %c, inner, out
out:
  %f = load @flag
  ret %f
}`},
		{name: "pure-intrinsics", skip: "some", delay: 400, src: `
func @loop() {
entry:
  %id = call @thread_id()
  %u = call @getuid()
  %f = load @flag
  ret %f
}`},
		{name: "racy-read", skip: "never", observedOnly: "lowest", racer: true, delay: 400, src: `
func @loop() {
entry:
  %f = load @flag
  ret %f
}`},
		{name: "store", skip: "never", delay: 400, src: `
func @loop() {
entry:
  %f = load @flag
  store %f, @shadow
  ret %f
}`},
		{name: "store-in-callee", skip: "never", delay: 400, src: `
func @bump() {
entry:
  %n = load @cnt
  %n2 = add %n, 1
  store %n2, @cnt
  ret 0
}
func @loop() {
entry:
  %z = call @bump()
  %f = load @flag
  ret %f
}`},
		{name: "rand", skip: "never", delay: 400, tail: "  %v = call @rand(1000)\n  ret %v", src: `
func @loop() {
entry:
  %r = call @rand(1)
  %f = load @flag
  ret %f
}`},
		// io_delay(0) wakes the thread at the very next step: its wake-up
		// is state, so the one-thread poll is a cycle like any other.
		{name: "io-delay", skip: "some", delay: 400, src: `
func @loop() {
entry:
  call @io_delay(0)
  %f = load @flag
  ret %f
}`},
	}
	makers := spinMakers(base)
	for _, c := range cases {
		racer, tail := "", c.tail
		if c.racer {
			racer = "  %w = call @spawn(@racer)\n"
		}
		if tail == "" {
			tail = "  %v = load @cnt\n  ret %v"
		}
		c.src = strings.NewReplacer("%DELAY%", fmt.Sprint(c.delay), "%RACER%", racer, "%TAIL%", tail).Replace(spinPrelude) + c.src
		checkSpinCase(t, c, makers, base)
	}
}

// checkSpinCase runs c's program under every maker at MaxSteps base to
// base+7, with and without observers, against its Step reference, and
// checks the case's fast-forward expectations.
func checkSpinCase(t *testing.T, c spinCase, makers []mk, base int) {
	t.Helper()
	mod, err := ir.Parse(c.name+".oir", c.src)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	skipped, cut, atMax := 0, false, false
	for _, s := range makers {
		for maxSteps := base; maxSteps < base+8; maxSteps++ {
			for _, observe := range []bool{true, false} {
				cfg := interp.Config{Module: mod, MaxSteps: maxSteps}
				tag := fmt.Sprintf("%s sched=%s maxSteps=%d observe=%v", c.name, s.name, maxSteps, observe)
				got := compareRunLoop(t, tag, cfg, s.new, observe)
				if c.skip == "never" && got.skipped > 0 && (c.observedOnly == "" || observe && s.name == c.observedOnly) {
					t.Fatalf("%s: fast-forwarded %d steps of a spin that must run live", tag, got.skipped)
				}
				skipped += got.skipped
				if got.skipped > 0 {
					cut = cut || !got.res.MaxStepsHit
					atMax = atMax || got.res.MaxStepsHit
				}
			}
		}
	}
	if c.skip == "some" && skipped == 0 {
		t.Errorf("%s: no run fast-forwarded the spin", c.name)
	}
	if c.cut != "" && !cut {
		t.Errorf("%s: no fast-forwarded spin was cut by a %s before MaxSteps", c.name, c.cut)
	}
	if c.skip == "some" && !atMax {
		t.Errorf("%s: no fast-forwarded spin ran to MaxSteps", c.name)
	}
}

// pollPrelude is the harness of the whole-machine spin programs: main
// spawns the pollers @p0, @p1, … the program supplies and, where the
// program asks for it, @starved, which spins on @flag and is runnable
// throughout (%SPAWN% and %JOIN% list them), then @setter, which
// sleeps, then sets the flag; main joins them all and prints @cnt.
// Where the pollers outrank the starved thread, they poll in turn and
// the starved thread runs only while they all sleep: no one thread is
// held, but the whole machine cycles until the setter wakes. Without
// the starved thread, pollers that sleep a step at a time cover each
// other's sleeps, so every cycle runs them all.
const pollPrelude = `
global @flag = 0
global @shadow = 0
global @cnt = 0
global @lock = 0
func @starved() {
entry:
  jmp spin
spin:
  %f = load @flag
  %c = icmp eq %f, 0
  br %c, spin, done
done:
  ret 0
}
func @setter() {
entry:
  call @io_delay(%DELAY%)
  store 1, @flag
  ret 0
}
func @main() {
entry:
%SPAWN%  %b = call @spawn(@setter)
%JOIN%  %rb = call @join(%b)
  %v = load @cnt
  call @print(%v)
  ret 0
}
`

// poller returns a poller @p<i> whose turn runs body (which may use
// %f, the flag it last read) before it reads the flag.
func poller(i int, body string) string {
	return fmt.Sprintf(`
func @p%d() {
entry:
  jmp wait
wait:
%s  %%f = load @flag
  %%c = icmp eq %%f, 0
  br %%c, wait, done
done:
  ret 0
}`, i, body)
}

// TestSpinFastForwardExactMachine is TestSpinFastForwardExact over
// whole-machine cycles: pollers that sleep between reads of a flag.
// Two and four equal pollers and pollers of unequal period above a
// thread that spins on the flag must be fast-forwarded, cut short by
// the setter's wake (an outside sleeper waking mid-window) or by a PCT
// demotion. Pollers that cover each other's sleeps, one of which
// stores, sleeps a rand-drawn time or takes a lock in its loop, must
// never be.
func TestSpinFastForwardExactMachine(t *testing.T) {
	delay := func(n int) string { return fmt.Sprintf("  call @io_delay(%d)\n", n) }
	cases := []struct {
		spinCase
		pollers []string // each poller's body
		starved bool     // spawn @starved after the pollers
	}{
		{spinCase{name: "pollers-2", skip: "some", cut: "wake", delay: 400}, []string{delay(3), delay(3)}, true},
		{spinCase{name: "pollers-4", skip: "some", cut: "wake", delay: 400}, []string{delay(7), delay(7), delay(7), delay(7)}, true},
		{spinCase{name: "pollers-unequal", skip: "some", cut: "wake", delay: 400}, []string{delay(2), delay(5), delay(9)}, true},
		{spinCase{name: "pollers-demoted", skip: "some", cut: "demotion", delay: 0}, []string{delay(3), delay(4)}, true},
		{spinCase{name: "pollers-cover", skip: "some", delay: 400}, []string{delay(1), delay(1)}, false},
		{spinCase{name: "poller-stores", skip: "never", delay: 400}, []string{delay(1), delay(1) + "  store %f, @shadow\n"}, false},
		{spinCase{name: "poller-rand-sleep", skip: "never", delay: 400}, []string{delay(1), "  %r = call @rand(2)\n  %r1 = add %r, 1\n  call @io_delay(%r1)\n"}, false},
		{spinCase{name: "poller-locks", skip: "never", delay: 400}, []string{delay(1), delay(1) + "  call @mutex_lock(@lock)\n  call @mutex_unlock(@lock)\n"}, false},
	}
	const base = 3000
	makers := spinMakers(base)
	for _, c := range cases {
		var spawn, join strings.Builder
		src := ""
		for i, body := range c.pollers {
			fmt.Fprintf(&spawn, "  %%t%d = call @spawn(@p%d)\n", i, i)
			fmt.Fprintf(&join, "  %%r%d = call @join(%%t%d)\n", i, i)
			src += poller(i, body)
		}
		if c.starved {
			spawn.WriteString("  %s = call @spawn(@starved)\n")
			join.WriteString("  %rs = call @join(%s)\n")
		}
		c.src = strings.NewReplacer("%DELAY%", fmt.Sprint(c.delay), "%SPAWN%", spawn.String(), "%JOIN%", join.String()).Replace(pollPrelude) + src
		checkSpinCase(t, c.spinCase, makers, base)
	}
}
