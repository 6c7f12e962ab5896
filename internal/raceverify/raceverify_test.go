package raceverify

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/race"
	"github.com/conanalysis/owl/internal/sched"
)

// harness detects races in src and returns the reports plus a factory for
// verification re-runs.
func harness(t *testing.T, src string) ([]*race.Report, MachineFactory) {
	t.Helper()
	mod := ir.MustParse("rv_test.oir", src)
	var reports []*race.Report
	for seed := uint64(1); seed < 30 && len(reports) == 0; seed++ {
		d := race.NewDetector()
		m, err := interp.New(interp.Config{
			Module: mod, Sched: sched.NewRandom(seed),
			Observers: []interp.Observer{d}, MaxSteps: 100000,
		})
		if err != nil {
			t.Fatal(err)
		}
		m.Run()
		reports = d.Reports()
	}
	mk := func(s interp.Scheduler, bp interp.BreakpointFunc) (*interp.Machine, error) {
		return interp.New(interp.Config{
			Module: mod, Sched: s, Breakpoint: bp, MaxSteps: 100000,
		})
	}
	return reports, mk
}

const racySrc = `
global @x = 5

func @worker() {
entry:
  call @io_delay(3)
  store 7, @x
  ret 0
}
func @main() {
entry:
  %t = call @spawn(@worker)
  call @io_delay(3)
  %v = load @x
  call @print(%v)
  %r = call @join(%t)
  ret 0
}
`

func TestVerifiesRealRace(t *testing.T) {
	reports, mk := harness(t, racySrc)
	if len(reports) == 0 {
		t.Fatal("no race reports")
	}
	h, err := New().Verify(mk, reports[0])
	if err != nil {
		t.Fatal(err)
	}
	if !h.Verified {
		t.Fatalf("real race not verified: %s", h)
	}
	if h.VarName != "@x" {
		t.Errorf("var name = %q, want @x", h.VarName)
	}
	if h.WriteVal != 7 {
		t.Errorf("write val = %d, want 7", h.WriteVal)
	}
	if h.ReadVal != 5 {
		t.Errorf("read val = %d, want 5 (about-to-read value)", h.ReadVal)
	}
	if h.WritesNull {
		t.Errorf("non-null write flagged as null hint")
	}
}

const nullWriteSrc = `
global @fptr = 0
global @done = 0

func @handler() {
entry:
  ret 0
}
func @msync() {
entry:
  call @io_delay(2)
  %f = load @fptr
  %c = icmp ne %f, 0
  br %c, callit, out
callit:
  call %f()
  ret 0
out:
  ret 0
}
func @main() {
entry:
  %h = func @handler
  store %h, @fptr
  %t = call @spawn(@msync)
  call @io_delay(2)
  store 0, @fptr
  %r = call @join(%t)
  ret 0
}
`

func TestNullPointerHint(t *testing.T) {
	reports, mk := harness(t, nullWriteSrc)
	var target *race.Report
	for _, r := range reports {
		if r.AddrName == "@fptr" && r.WriteSide().Val == 0 {
			target = r
			break
		}
	}
	if target == nil {
		t.Skip("the NULL-storing race was not observed in detection runs")
	}
	h, err := New().Verify(mk, target)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Verified {
		t.Fatalf("race not verified: %s", h)
	}
	if !h.WritesNull {
		t.Errorf("missing NULL-pointer hint: %s", h)
	}
}

const lockProtectedSrc = `
global @m = 0
global @x = 0

func @worker() {
entry:
  call @mutex_lock(@m)
  store 1, @x
  call @mutex_unlock(@m)
  ret 0
}
func @main() {
entry:
  %t = call @spawn(@worker)
  call @mutex_lock(@m)
  %v = load @x
  call @mutex_unlock(@m)
  %r = call @join(%t)
  ret 0
}
`

// TestLockProtectedPairNotVerified feeds the verifier a fabricated report
// whose accesses are mutex-ordered; the racing moment can never be caught
// because the lock keeps one thread out while the other holds it, and the
// livelock-release path must terminate the attempt cleanly.
func TestLockProtectedPairNotVerified(t *testing.T) {
	mod := ir.MustParse("rv_test.oir", lockProtectedSrc)
	var loadIn, storeIn *ir.Instr
	for _, in := range mod.Func("main").Instrs() {
		if in.Op == ir.OpLoad {
			loadIn = in
		}
	}
	for _, in := range mod.Func("worker").Instrs() {
		if in.Op == ir.OpStore {
			storeIn = in
		}
	}
	rep := &race.Report{
		Prev:     race.Access{TID: 1, IsWrite: true, Instr: storeIn},
		Cur:      race.Access{TID: 0, Instr: loadIn},
		AddrName: "@x",
	}
	mk := func(s interp.Scheduler, bp interp.BreakpointFunc) (*interp.Machine, error) {
		return interp.New(interp.Config{Module: mod, Sched: s, Breakpoint: bp, MaxSteps: 50000})
	}
	v := New()
	v.Attempts = 4
	h, err := v.Verify(mk, rep)
	if err != nil {
		t.Fatal(err)
	}
	if h.Verified {
		t.Errorf("mutex-ordered pair wrongly verified as a race")
	}
	if h.Attempts != 4 {
		t.Errorf("attempts = %d, want 4", h.Attempts)
	}
}

func TestLivelockRelease(t *testing.T) {
	// Main joins on the worker; suspending the worker at its store would
	// deadlock the run unless the verifier releases the breakpoint. The
	// worker's store is the only write, so after release the verifier
	// cannot catch the moment and must report not-verified without
	// hanging. With every other thread blocked nothing cycles, so the
	// doomed-hold proof must not fire: each attempt is released and runs
	// to the end.
	src := `
global @x = 0

func @worker() {
entry:
  store 1, @x
  ret 0
}
func @main() {
entry:
  %t = call @spawn(@worker)
  %r = call @join(%t)
  %v = load @x
  ret 0
}
`
	mod := ir.MustParse("rv_test.oir", src)
	var storeIn, loadIn *ir.Instr
	for _, in := range mod.Func("worker").Instrs() {
		if in.Op == ir.OpStore {
			storeIn = in
		}
	}
	for _, in := range mod.Func("main").Instrs() {
		if in.Op == ir.OpLoad {
			loadIn = in
		}
	}
	rep := &race.Report{
		Prev:     race.Access{TID: 1, IsWrite: true, Instr: storeIn},
		Cur:      race.Access{TID: 0, Instr: loadIn},
		AddrName: "@x",
	}
	h, machines, _ := verifyBoth(t, mod, rep)
	// join(t) orders the accesses, so the moment must never be caught —
	// but the run must terminate (livelock release works).
	if h.Verified {
		t.Errorf("join-ordered accesses wrongly verified")
	}
	for i, m := range machines {
		for _, th := range m.Threads() {
			if th.Status != interp.StatusDone {
				t.Errorf("attempt %d: thread %d ended %s, want the released run to finish", i+1, th.ID, th.Status)
			}
		}
	}
}

// access returns fn's first load or store of the global name.
func access(t *testing.T, mod *ir.Module, fn, name string) *ir.Instr {
	t.Helper()
	for _, in := range mod.Func(fn).Instrs() {
		if in.Op == ir.OpLoad && in.Args[0].Kind == ir.OperandGlobal && in.Args[0].Name == name ||
			in.Op == ir.OpStore && in.Args[1].Kind == ir.OperandGlobal && in.Args[1].Name == name {
			return in
		}
	}
	t.Fatalf("no access to @%s in @%s", name, fn)
	return nil
}

// waiterPair parses src and returns the report pairing main's store to
// @x with @waiter's load of @x.
func waiterPair(t *testing.T, src string) (*ir.Module, *race.Report) {
	t.Helper()
	mod := ir.MustParse("rv_test.oir", src)
	return mod, &race.Report{
		Prev:     race.Access{TID: 0, IsWrite: true, Instr: access(t, mod, "main", "x")},
		Cur:      race.Access{TID: 1, Instr: access(t, mod, "waiter", "x")},
		AddrName: "@x",
	}
}

// verifyCounting verifies rep, every attempt from step 0 on a machine
// of its own, and returns the hint plus the machines of its attempts.
func verifyCounting(t *testing.T, v *Verifier, mod *ir.Module, rep *race.Report) (*Hint, []*interp.Machine) {
	t.Helper()
	v = FromStepZero(v)
	var machines []*interp.Machine
	mk := func(s interp.Scheduler, bp interp.BreakpointFunc) (*interp.Machine, error) {
		m, err := interp.New(interp.Config{Module: mod, Sched: s, Breakpoint: bp, MaxSteps: 100000})
		if err == nil {
			machines = append(machines, m)
		}
		return m, err
	}
	h, err := v.Verify(mk, rep)
	if err != nil {
		t.Fatal(err)
	}
	return h, machines
}

// verifyBoth verifies rep with and without the doomed-hold proof and
// requires identical hints, also from the shared prefix.
func verifyBoth(t *testing.T, mod *ir.Module, rep *race.Report) (h *Hint, machines, refMachines []*interp.Machine) {
	t.Helper()
	h, machines = verifyCounting(t, New(), mod, rep)
	ref, refMachines := verifyCounting(t, &Verifier{keepDoomed: true}, mod, rep)
	if !reflect.DeepEqual(h, ref) {
		t.Fatalf("hint with the cut %+v, without %+v", h, ref)
	}
	mk := func(s interp.Scheduler, bp interp.BreakpointFunc) (*interp.Machine, error) {
		return interp.New(interp.Config{Module: mod, Sched: s, Breakpoint: bp, MaxSteps: 100000})
	}
	shared, err := New().Verify(mk, rep)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shared, h) {
		t.Fatalf("hint from the shared prefix %+v, from step 0 %+v", shared, h)
	}
	return h, machines, refMachines
}

// checkCut verifies src with and without the doomed-hold proof. Every
// attempt of the reference must run its hold to the time-out, and each
// attempt with the proof must stop well short of it (cut) or run at
// least as far (not cut), as wantCut says.
func checkCut(t *testing.T, src string, wantCut bool) *Hint {
	t.Helper()
	mod, rep := waiterPair(t, src)
	h, machines, refMachines := verifyBoth(t, mod, rep)
	budget := New().HoldBudget
	for i, m := range refMachines {
		if m.StepCount() <= budget {
			t.Fatalf("reference attempt %d ran %d steps: the hold did not time out", i+1, m.StepCount())
		}
	}
	for i, m := range machines {
		if cut := m.StepCount() < budget/10; cut != wantCut {
			t.Errorf("attempt %d ran %d steps (hold budget %d), want cut=%v", i+1, m.StepCount(), budget, wantCut)
		}
	}
	return h
}

// gatedSrc is the gated noise unit's shape: @waiter spins on a gate only
// main opens, after its racing store. With main held at the store, the
// hold is doomed; %BODY% is spliced into the spin loop.
const gatedSrc = `
global @x = 0
global @gate = 0

func @waiter() {
entry:
  jmp wait
wait:
%BODY%
  call @io_delay(7)
  %g = load @gate
  %c = icmp ne %g, 0
  br %c, go, wait
go:
  %v = load @x
  ret %v
}
func @main() {
entry:
  %t = call @spawn(@waiter)
  store 5, @x
  store 1, @gate
  %r = call @join(%t)
  ret 0
}
`

func TestSpinGatedHoldIsCut(t *testing.T) {
	h := checkCut(t, strings.Replace(gatedSrc, "%BODY%", "", 1), true)
	if h.Verified || h.Attempts != New().Attempts {
		t.Errorf("gated pair: %s after %d attempts, want not verified after all", h, h.Attempts)
	}
}

func TestRandSpinnerNotCut(t *testing.T) {
	checkCut(t, strings.Replace(gatedSrc, "%BODY%", "  %r = call @rand(10)", 1), false)
}

func TestCountingSpinnerNotCut(t *testing.T) {
	checkCut(t, strings.Replace(gatedSrc, "%BODY%", "  %i = phi [entry: 0], [wait: %i2]\n  %i2 = add %i, 1", 1), false)
}

// TestPassingThreadVoidsWindow holds one @waiter at the racing load
// while a second one keeps passing it on every turn of the spin: the
// pass voids the window, so the hold is never cut. A thread released
// from a hold passes its racing instruction (passOnce) through the same
// rule.
func TestPassingThreadVoidsWindow(t *testing.T) {
	src := `
global @x = 0

func @waiter() {
entry:
  jmp wait
wait:
  call @io_delay(7)
  %v = load @x
  jmp wait
}
func @main() {
entry:
  %a = call @spawn(@waiter)
  %b = call @spawn(@waiter)
  %r = call @join(%a)
  store 1, @x
  ret 0
}
`
	checkCut(t, src, false)
}

// TestStoringSpinnerNotCut: @setter's loop repeats its state on every
// turn, but each turn stores the flag @waiter polls, which lets @waiter
// reach the racing load. The stores void the window, so the hold lasts
// until the partner arrives and the race is verified; a proof that
// ignored stores would cut it while @waiter sleeps.
func TestStoringSpinnerNotCut(t *testing.T) {
	src := `
global @x = 0
global @flag = 0

func @waiter() {
entry:
  jmp wait
wait:
  call @io_delay(500)
  %f = load @flag
  %c = icmp ne %f, 0
  br %c, go, wait
go:
  %v = load @x
  ret %v
}
func @setter() {
entry:
  call @io_delay(1500)
  jmp loop
loop:
  store 1, @flag
  jmp loop
}
func @main() {
entry:
  %w = call @spawn(@waiter)
  %s = call @spawn(@setter)
  store 5, @x
  %r = call @join(%w)
  ret 0
}
`
	mod, rep := waiterPair(t, src)
	h, _, _ := verifyBoth(t, mod, rep)
	if !h.Verified || h.Attempts != 1 {
		t.Errorf("store-released partner: %s after %d attempts, want verified on the first", h, h.Attempts)
	}
}

// TestVerifyAllWorkersShareSnapshot verifies a batch whose reports come
// in copies, so each seed's snapshots serve several attempts and, at
// workers 3, several seeds run at once (the -race suite runs it), and
// requires the hints of one worker and of verifying every attempt from
// step 0.
func TestVerifyAllWorkersShareSnapshot(t *testing.T) {
	for _, src := range []string{racySrc, nullWriteSrc} {
		reports, mk := harness(t, src)
		if len(reports) == 0 {
			t.Fatal("no race reports")
		}
		var reps []*race.Report
		for i := 0; i < 3; i++ {
			reps = append(reps, reports...)
		}
		want := FromStepZero(New()).VerifyAll(context.Background(), mk, reps, 1)
		for _, workers := range []int{1, 3} {
			got := New().VerifyAll(context.Background(), mk, reps, workers)
			for i, rep := range reps {
				if got.Errs[i] != nil || want.Errs[i] != nil {
					t.Fatalf("workers=%d: %s: error %v, from step 0 %v", workers, rep.ID(), got.Errs[i], want.Errs[i])
				}
				if !reflect.DeepEqual(got.Hints[i], want.Hints[i]) {
					t.Errorf("workers=%d: %s: %+v, from step 0 %+v", workers, rep.ID(), got.Hints[i], want.Hints[i])
				}
			}
		}
	}
}

// TestEachIsolatesFailures: an error or a panic in one report's job
// is recorded for that report alone, and every other job still runs.
func TestEachIsolatesFailures(t *testing.T) {
	errs := make([]error, 6)
	ran := 0
	each([]int{0, 1, 2, 3, 4, 5}, errs, func(i int) error {
		ran++
		switch i {
		case 2:
			panic("boom")
		case 4:
			return errors.New("bad")
		}
		return nil
	})
	if ran != 6 {
		t.Errorf("%d jobs ran, want 6", ran)
	}
	for i, err := range errs {
		if (err != nil) != (i == 2 || i == 4) {
			t.Errorf("job %d error %v", i, err)
		}
	}
	if errs[2] == nil || !strings.Contains(errs[2].Error(), "panic: boom") {
		t.Errorf("panicking job recorded %v", errs[2])
	}
}

// TestResumedAttemptKeepsIterationBudget: a resumed attempt counts its
// loop iterations from the iteration its snapshot was taken before, so
// MaxSteps cuts it exactly where it cuts a run from step 0. The budget
// is set to the last iteration that still catches the race, and to one
// less.
func TestResumedAttemptKeepsIterationBudget(t *testing.T) {
	reports, mk := harness(t, racySrc)
	if len(reports) == 0 {
		t.Fatal("no race reports")
	}
	rep := reports[0]
	verifier := func(maxSteps int) *Verifier {
		return &Verifier{Attempts: 1, MaxSteps: maxSteps, HoldBudget: 15000}
	}
	caughtWithin := func(maxSteps int) bool {
		h, err := FromStepZero(verifier(maxSteps)).Verify(mk, rep)
		if err != nil {
			t.Fatal(err)
		}
		return h.Verified
	}
	hi := 100000
	if !caughtWithin(hi) {
		t.Fatal("the reference does not catch the race on the first seed")
	}
	lo := 1 // caughtWithin(lo) is false: the race needs two suspensions
	for hi-lo > 1 {
		if mid := (lo + hi) / 2; caughtWithin(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	for _, maxSteps := range []int{lo, hi} {
		want, err := FromStepZero(verifier(maxSteps)).Verify(mk, rep)
		if err != nil {
			t.Fatal(err)
		}
		got, err := verifier(maxSteps).Verify(mk, rep)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("MaxSteps=%d: from the shared prefix %+v, from step 0 %+v", maxSteps, got, want)
		}
	}
}

// TestLaterSeedSettlesFirst replays the interleaving in which a later
// seed catches a report before an earlier seed, which catches it too,
// has finished: seed 2 runs to its end first, then seed 1. The merge
// must give the report seed 1's outcome, Attempts and Schedule
// included, and count the steps a one-seed-at-a-time batch takes; a
// seed after both must skip the report.
func TestLaterSeedSettlesFirst(t *testing.T) {
	reports, mk := harness(t, racySrc)
	if len(reports) == 0 {
		t.Fatal("no race reports")
	}
	reps := reports[:1]
	v := New()
	v.Attempts = 2
	want := v.VerifyAll(context.Background(), mk, reps, 1)
	if want.Errs[0] != nil || !want.Hints[0].Verified || want.Hints[0].Attempts != 1 {
		t.Fatalf("reference: %+v, error %v; want verified on the first seed", want.Hints[0], want.Errs[0])
	}
	fx, err := moduleEffects(reps[0].Prev.Instr.Fn.Mod)
	if err != nil {
		t.Fatal(err)
	}
	c := &batchRun{
		v: v, mk: mk, reps: reps, fx: fx, pending: []int{0},
		settled: make([]atomic.Int32, 1), free: make(chan *interp.Machine, 1),
	}
	runs := make([]*seedRun, 2)
	runs[1] = c.seed(context.Background(), 2)
	if runs[1] == nil || runs[1].tries[0].hint == nil {
		t.Fatal("seed 2 does not catch the race on its own")
	}
	runs[0] = c.seed(context.Background(), 1)
	if runs[0] == nil || runs[0].tries[0].hint == nil {
		t.Fatal("seed 1 skipped the report a later seed settled")
	}
	if c.seed(context.Background(), 3) != nil {
		t.Error("seed 3 tried a report seed 1 settled")
	}
	got := &Batch{Hints: []*Hint{{Report: reps[0]}}, Errs: make([]error, 1)}
	got.merge(runs, c.pending)
	if !reflect.DeepEqual(got.Hints[0], want.Hints[0]) {
		t.Errorf("merged %+v, one seed at a time %+v", got.Hints[0], want.Hints[0])
	}
	if got.Steps != want.Steps {
		t.Errorf("merged %d steps, one seed at a time %d", got.Steps, want.Steps)
	}
}

// panicAfter is a scheduler that panics from step limit on.
type panicAfter struct {
	interp.Scheduler
	limit int
}

func (s panicAfter) Next(runnable []interp.ThreadID, step int) interp.ThreadID {
	if step >= s.limit {
		panic("boom")
	}
	return s.Scheduler.Next(runnable, step)
}

// TestBaseWalkPanicKeepsCaughtReports: a panic late in a seed's base
// walk fails the report whose instructions had not fired, while the
// report the walk caught earlier keeps its hint, Schedule included.
func TestBaseWalkPanicKeepsCaughtReports(t *testing.T) {
	reports, mk := harness(t, racySrc+`
func @dead() {
entry:
  store 1, @x
  ret 0
}
`)
	if len(reports) == 0 {
		t.Fatal("no race reports")
	}
	rep := reports[0]
	dead := access(t, rep.Prev.Instr.Fn.Mod, "dead", "x")
	never := &race.Report{
		Prev: race.Access{IsWrite: true, Instr: dead}, Cur: race.Access{IsWrite: true, Instr: dead}, AddrName: "@x",
	}
	v := New()
	v.Attempts = 1
	want, err := v.Verify(mk, rep)
	if err != nil || !want.Verified {
		t.Fatalf("reference: %+v, error %v; want verified on the first seed", want, err)
	}
	m, err := mk(sched.NewRandom(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The walk runs to the program's end, as @dead never runs; it
	// panics one step short of it, after rep's attempt.
	limit := m.Run().Steps - 1
	panicky := func(s interp.Scheduler, bp interp.BreakpointFunc) (*interp.Machine, error) {
		return mk(panicAfter{s, limit}, bp)
	}
	b := v.VerifyAll(context.Background(), panicky, []*race.Report{rep, never}, 1)
	if b.Errs[0] != nil || !reflect.DeepEqual(b.Hints[0], want) {
		t.Errorf("caught report: %+v, error %v; want %+v", b.Hints[0], b.Errs[0], want)
	}
	if b.Errs[1] == nil || !strings.Contains(b.Errs[1].Error(), "panic: boom") {
		t.Errorf("unfired report: error %v, want the walk's panic", b.Errs[1])
	}
}
