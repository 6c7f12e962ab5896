package interp

import (
	"strings"
	"testing"

	"github.com/conanalysis/owl/internal/ir"
)

// rr is a minimal round-robin scheduler local to this package's tests (the
// real schedulers live in internal/sched, which depends on this package).
type rr struct{ last ThreadID }

func (s *rr) Next(runnable []ThreadID, step int) ThreadID {
	for _, id := range runnable {
		if id > s.last {
			s.last = id
			return id
		}
	}
	s.last = runnable[0]
	return runnable[0]
}

// firstSched always runs the lowest-id runnable thread.
type firstSched struct{}

func (firstSched) Next(runnable []ThreadID, step int) ThreadID { return runnable[0] }

func run(t *testing.T, src string, cfg Config) (*Machine, *Result) {
	t.Helper()
	m, r, err := tryRun(src, cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return m, r
}

func tryRun(src string, cfg Config) (*Machine, *Result, error) {
	mod, err := ir.Parse("test.oir", src)
	if err != nil {
		return nil, nil, err
	}
	cfg.Module = mod
	if cfg.Sched == nil {
		cfg.Sched = &rr{last: -1}
	}
	m, err := New(cfg)
	if err != nil {
		return nil, nil, err
	}
	return m, m.Run(), nil
}

func TestArithmeticAndControlFlow(t *testing.T) {
	src := `
func @main() {
entry:
  %a = const 6
  %b = mul %a, 7
  %c = icmp eq %b, 42
  br %c, yes, no
yes:
  call @print(%b)
  ret 0
no:
  call @print(0)
  ret 1
}
`
	_, r := run(t, src, Config{})
	if len(r.Output) != 1 || r.Output[0] != "42" {
		t.Errorf("output = %v, want [42]", r.Output)
	}
	if len(r.Faults) != 0 {
		t.Errorf("unexpected faults: %v", r.Faults)
	}
}

func TestGlobalsAndMemory(t *testing.T) {
	src := `
global @g = 5
global @arr [4]

func @main() {
entry:
  %v = load @g
  %v2 = add %v, 1
  store %v2, @g
  %p = addr @arr
  %p3 = gep %p, 3
  store 99, %p3
  %w = load %p3
  call @print(%w)
  ret 0
}
`
	m, r := run(t, src, Config{})
	if r.Output[0] != "99" {
		t.Errorf("output = %v", r.Output)
	}
	if got := m.Mem().Peek(m.GlobalAddr("g")); got != 6 {
		t.Errorf("@g = %d, want 6", got)
	}
}

func TestPhiLoop(t *testing.T) {
	src := `
func @main() {
entry:
  jmp head
head:
  %i = phi [entry: 0], [head2: %i2]
  %s = phi [entry: 0], [head2: %s2]
  %c = icmp lt %i, 5
  br %c, head2, done
head2:
  %s2 = add %s, %i
  %i2 = add %i, 1
  jmp head
done:
  call @print(%s)
  ret 0
}
`
	_, r := run(t, src, Config{})
	if r.Output[0] != "10" {
		t.Errorf("sum 0..4 = %v, want 10", r.Output)
	}
}

func TestCallsAndReturns(t *testing.T) {
	src := `
func @twice(%x) {
entry:
  %y = add %x, %x
  ret %y
}
func @main() {
entry:
  %a = call @twice(21)
  call @print(%a)
  ret 0
}
`
	_, r := run(t, src, Config{})
	if r.Output[0] != "42" {
		t.Errorf("output = %v", r.Output)
	}
}

func TestIndirectCallAndNullFuncPtr(t *testing.T) {
	src := `
global @fptr = 0

func @handler() {
entry:
  call @print(7)
  ret 0
}
func @main() {
entry:
  %f = func @handler
  store %f, @fptr
  %g = load @fptr
  call %g()
  store 0, @fptr
  %h = load @fptr
  call %h()
  ret 0
}
`
	_, r := run(t, src, Config{})
	if len(r.Output) != 1 || r.Output[0] != "7" {
		t.Errorf("output = %v, want [7]", r.Output)
	}
	if len(r.Faults) != 1 || r.Faults[0].Kind != FaultNullFuncPtr {
		t.Fatalf("faults = %v, want one null-func-ptr fault", r.Faults)
	}
}

func TestMemoryFaults(t *testing.T) {
	tests := []struct {
		name string
		body string
		want FaultKind
	}{
		{"null deref", "%v = load 0\n  ret 0", FaultNilDeref},
		{"oob", "%p = call @malloc(2)\n  %q = gep %p, 2\n  store 1, %q\n  ret 0", FaultOOB},
		{"uaf", "%p = call @malloc(2)\n  call @free(%p)\n  %v = load %p\n  ret 0", FaultUseAfterFree},
		{"double free", "%p = call @malloc(2)\n  call @free(%p)\n  call @free(%p)\n  ret 0", FaultDoubleFree},
		{"div zero", "%z = const 0\n  %v = div 1, %z\n  ret 0", FaultDivZero},
		{"assert", "call @assert(0)\n  ret 0", FaultAssert},
		{"bad free", "%p = const 12345\n  call @free(%p)\n  ret 0", FaultBadFree},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			src := "func @main() {\nentry:\n  " + tt.body + "\n}\n"
			_, r := run(t, src, Config{})
			if len(r.Faults) != 1 {
				t.Fatalf("faults = %v, want exactly 1", r.Faults)
			}
			if r.Faults[0].Kind != tt.want {
				t.Errorf("fault kind = %v, want %v", r.Faults[0].Kind, tt.want)
			}
			if r.Faults[0].Stack == nil {
				t.Errorf("fault has no stack")
			}
		})
	}
}

func TestStrcpyAndOverflow(t *testing.T) {
	src := `
global @long = "AAAAAAAAAA"

func @main() {
entry:
  %dst = call @malloc(4)
  %src = addr @long
  call @strcpy(%dst, %src)
  ret 0
}
`
	_, r := run(t, src, Config{})
	if len(r.Faults) != 1 || r.Faults[0].Kind != FaultOOB {
		t.Fatalf("faults = %v, want buffer overflow", r.Faults)
	}
}

func TestSpawnJoin(t *testing.T) {
	src := `
global @counter = 0

func @worker(%n) {
entry:
  %v = load @counter
  %v2 = add %v, %n
  store %v2, @counter
  ret %n
}
func @main() {
entry:
  %t1 = call @spawn(@worker, 10)
  %t2 = call @spawn(@worker, 20)
  %r1 = call @join(%t1)
  %r2 = call @join(%t2)
  %s = add %r1, %r2
  call @print(%s)
  %c = load @counter
  call @print(%c)
  ret 0
}
`
	_, r := run(t, src, Config{})
	if len(r.Output) != 2 || r.Output[0] != "30" {
		t.Errorf("output = %v, want [30 30]", r.Output)
	}
}

func TestMutexExclusionAndDeadlock(t *testing.T) {
	src := `
global @m = 0
global @x = 0

func @worker() {
entry:
  call @mutex_lock(@m)
  %v = load @x
  %v2 = add %v, 1
  store %v2, @x
  call @mutex_unlock(@m)
  ret 0
}
func @main() {
entry:
  %t1 = call @spawn(@worker)
  %t2 = call @spawn(@worker)
  %r1 = call @join(%t1)
  %r2 = call @join(%t2)
  %v = load @x
  call @print(%v)
  ret 0
}
`
	_, r := run(t, src, Config{})
	if r.Output[len(r.Output)-1] != "2" {
		t.Errorf("output = %v, want final 2", r.Output)
	}

	dead := `
global @m = 0
func @main() {
entry:
  call @mutex_lock(@m)
  call @mutex_lock(@m)
  ret 0
}
`
	_, r = run(t, dead, Config{})
	if len(r.Faults) != 1 || r.Faults[0].Kind != FaultAbort {
		t.Errorf("recursive lock: faults = %v, want abort", r.Faults)
	}
}

func TestMutexBlocksUntilUnlock(t *testing.T) {
	src := `
global @m = 0
global @order [4]
global @idx = 0

func @mark(%who) {
entry:
  %i = load @idx
  %p = addr @order
  %q = gep %p, %i
  store %who, %q
  %i2 = add %i, 1
  store %i2, @idx
  ret 0
}
func @worker() {
entry:
  call @mutex_lock(@m)
  call @mark(2)
  call @mutex_unlock(@m)
  ret 0
}
func @main() {
entry:
  call @mutex_lock(@m)
  %t = call @spawn(@worker)
  call @mark(1)
  call @io_delay(5)
  call @mark(1)
  call @mutex_unlock(@m)
  %r = call @join(%t)
  ret 0
}
`
	m, r := run(t, src, Config{})
	if r.Stall != StallDone {
		t.Fatalf("stall = %v, want done", r.Stall)
	}
	base := m.GlobalAddr("order")
	got := []int64{m.Mem().Peek(base), m.Mem().Peek(base + 1), m.Mem().Peek(base + 2)}
	want := []int64{1, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v (mutex failed to exclude)", got, want)
		}
	}
}

func TestExitKillsAllThreads(t *testing.T) {
	src := `
func @spinner() {
entry:
  jmp loop
loop:
  call @yield()
  jmp loop
}
func @main() {
entry:
  %t = call @spawn(@spinner)
  call @io_delay(3)
  call @exit(5)
  ret 0
}
`
	_, r := run(t, src, Config{MaxSteps: 10000})
	if r.ExitCode != 5 {
		t.Errorf("exit code = %d, want 5", r.ExitCode)
	}
	if r.MaxStepsHit {
		t.Errorf("exit did not stop the spinner")
	}
}

func TestInputsAndIODelay(t *testing.T) {
	src := `
func @main() {
entry:
  %a = call @input()
  %b = call @input()
  %c = call @input()
  %s = add %a, %b
  %s2 = add %s, %c
  call @print(%s2)
  ret 0
}
`
	_, r := run(t, src, Config{Inputs: []int64{10, 20, 0}})
	if r.Output[0] != "30" {
		t.Errorf("output = %v", r.Output)
	}
}

func TestUIDAndFS(t *testing.T) {
	src := `
func @main() {
entry:
  %u = call @getuid()
  call @print(%u)
  call @setuid(0)
  %fd = call @open("index.html")
  %buf = call @malloc(3)
  call @memset(%buf, 65, 3)
  %n = call @write(%fd, %buf, 3)
  call @print(%n)
  %ok = call @access("index.html")
  call @print(%ok)
  call @exec("/bin/sh")
  ret 0
}
`
	m, r := run(t, src, Config{})
	if r.UID != 0 {
		t.Errorf("uid = %d, want 0 after setuid", r.UID)
	}
	if r.Output[0] != "1000" || r.Output[1] != "3" || r.Output[2] != "1" {
		t.Errorf("output = %v", r.Output)
	}
	f := m.FS().Lookup("index.html")
	if f == nil || len(f.Data) != 3 || f.Data[0] != 65 {
		t.Errorf("file = %+v, want 3 words of 65", f)
	}
	if len(m.ExecLog()) != 1 || m.ExecLog()[0] != "/bin/sh" {
		t.Errorf("exec log = %v", m.ExecLog())
	}
}

func TestScheduleReplayIsDeterministic(t *testing.T) {
	src := `
global @x = 0

func @worker(%v) {
entry:
  store %v, @x
  ret 0
}
func @main() {
entry:
  %t1 = call @spawn(@worker, 1)
  %t2 = call @spawn(@worker, 2)
  %r1 = call @join(%t1)
  %r2 = call @join(%t2)
  %v = load @x
  call @print(%v)
  ret 0
}
`
	mod := ir.MustParse("test.oir", src)
	first, err := New(Config{Module: mod, Sched: &rr{last: -1}})
	if err != nil {
		t.Fatal(err)
	}
	r1 := first.Run()

	replayer := &traceReplay{trace: r1.Schedule}
	second, err := New(Config{Module: mod, Sched: replayer})
	if err != nil {
		t.Fatal(err)
	}
	r2 := second.Run()
	if len(r1.Output) == 0 || len(r2.Output) == 0 || r1.Output[0] != r2.Output[0] {
		t.Errorf("replay output %v != original %v", r2.Output, r1.Output)
	}
	if len(r1.Schedule) != len(r2.Schedule) {
		t.Errorf("replay schedule length %d != %d", len(r2.Schedule), len(r1.Schedule))
	}
}

type traceReplay struct {
	trace []ThreadID
	pos   int
}

func (s *traceReplay) Next(runnable []ThreadID, step int) ThreadID {
	if s.pos < len(s.trace) {
		want := s.trace[s.pos]
		s.pos++
		for _, id := range runnable {
			if id == want {
				return id
			}
		}
	}
	return runnable[0]
}

func TestEventsEmitted(t *testing.T) {
	src := `
global @g = 0
func @main() {
entry:
  %v = load @g
  store 1, @g
  %c = icmp eq %v, 0
  br %c, a, b
a:
  ret 0
b:
  ret 1
}
`
	var kinds []EventKind
	obs := ObserverFunc(func(m *Machine, e *Event) { kinds = append(kinds, e.Kind) })
	mod := ir.MustParse("test.oir", src)
	m, err := New(Config{Module: mod, Sched: firstSched{}, Observers: []Observer{obs}})
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	want := []EventKind{EvRead, EvWrite, EvBranch}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("event %d = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestBreakpointSuspendsOneThread(t *testing.T) {
	src := `
global @g = 0
func @worker() {
entry:
  store 7, @g
  ret 0
}
func @main() {
entry:
  %t = call @spawn(@worker)
  call @io_delay(2)
  store 1, @g
  %r = call @join(%t)
  %v = load @g
  call @print(%v)
  ret 0
}
`
	mod := ir.MustParse("test.oir", src)
	var storeInstr *ir.Instr
	for _, in := range mod.Func("worker").Instrs() {
		if in.Op == ir.OpStore {
			storeInstr = in
		}
	}
	hit := false
	bp := func(m *Machine, th *Thread, in *ir.Instr) BPAction {
		if in == storeInstr && !hit {
			hit = true
			return BPSuspend
		}
		return BPContinue
	}
	m, err := New(Config{Module: mod, Sched: &rr{last: -1}, Breakpoint: bp})
	if err != nil {
		t.Fatal(err)
	}
	m.Watch(storeInstr)
	for m.Step() {
	}
	if !hit {
		t.Fatal("breakpoint never hit")
	}
	// Main is blocked in join on the suspended worker.
	if got := m.Stall(); got != StallSuspended {
		t.Fatalf("stall = %v, want suspended", got)
	}
	// The suspended worker has not stored yet; the pending access must be
	// visible for hint extraction.
	pa, ok := m.Pending(1)
	if !ok || !pa.IsWrite || pa.Val != 7 {
		t.Fatalf("pending = %+v ok=%v, want write of 7", pa, ok)
	}
	m.Resume(1)
	r := m.Run()
	if r.Stall != StallDone {
		t.Fatalf("stall after resume = %v, want done", r.Stall)
	}
	if r.Output[0] != "7" {
		t.Errorf("output = %v, want [7]", r.Output)
	}
}

func TestAllocaFreedOnReturn(t *testing.T) {
	src := `
global @leak = 0

func @f() {
entry:
  %p = alloca 2
  store 1, %p
  store %p, @leak
  ret 0
}
func @main() {
entry:
  %r = call @f()
  %p = load @leak
  %v = load %p
  ret 0
}
`
	_, r := run(t, src, Config{})
	if len(r.Faults) != 1 || r.Faults[0].Kind != FaultUseAfterFree {
		t.Errorf("faults = %v, want dangling-stack-pointer UAF", r.Faults)
	}
}

func TestStringLiteralArgs(t *testing.T) {
	src := `
func @main() {
entry:
  call @print_str("hello owl")
  ret 0
}
`
	_, r := run(t, src, Config{})
	if len(r.Output) != 1 || r.Output[0] != "hello owl" {
		t.Errorf("output = %v", r.Output)
	}
}

func TestUnknownFunctionFaults(t *testing.T) {
	src := `
func @main() {
entry:
  call @no_such_fn()
  ret 0
}
`
	_, r := run(t, src, Config{})
	if len(r.Faults) != 1 || r.Faults[0].Kind != FaultUnknownIntrinsic {
		t.Errorf("faults = %v, want unknown function", r.Faults)
	}
}

func TestMaxStepsTruncates(t *testing.T) {
	src := `
func @main() {
entry:
  jmp loop
loop:
  jmp loop
}
`
	_, r := run(t, src, Config{MaxSteps: 50})
	if !r.MaxStepsHit {
		t.Error("expected MaxStepsHit")
	}
	if r.Steps != 50 {
		t.Errorf("steps = %d, want 50", r.Steps)
	}
}

func TestConfigValidation(t *testing.T) {
	mod := ir.MustParse("t.oir", "func @main() {\nentry:\n  ret 0\n}")
	if _, err := New(Config{Module: mod}); err == nil {
		t.Error("want error for missing scheduler")
	}
	if _, err := New(Config{Module: mod, Sched: firstSched{}, Entry: "nope"}); err == nil {
		t.Error("want error for missing entry")
	}
	if _, err := New(Config{Sched: firstSched{}}); err == nil {
		t.Error("want error for missing module")
	}
	unfrozen := ir.NewModule("x")
	if _, err := New(Config{Module: unfrozen, Sched: firstSched{}}); err == nil {
		t.Error("want error for unfrozen module")
	}
}

func TestUnsignedUnderflowSemantics(t *testing.T) {
	// The Apache Figure 8 attack: an unsigned counter decremented past
	// zero becomes 2^64-1-ish and wins every "ult" comparison.
	src := `
global @busy = 0

func @main() {
entry:
  %v = load @busy
  %v2 = sub %v, 2
  store %v2, @busy
  %w = load @busy
  %c = icmp ult 5, %w
  br %c, huge, small
huge:
  call @print(1)
  ret 0
small:
  call @print(0)
  ret 0
}
`
	_, r := run(t, src, Config{})
	if r.Output[0] != "1" {
		t.Errorf("underflowed counter should compare huge; output %v", r.Output)
	}
}

func TestStallDeadlockDetection(t *testing.T) {
	src := `
global @m1 = 0
global @m2 = 0

func @worker() {
entry:
  call @mutex_lock(@m2)
  call @io_delay(10)
  call @mutex_lock(@m1)
  ret 0
}
func @main() {
entry:
  call @mutex_lock(@m1)
  %t = call @spawn(@worker)
  call @io_delay(10)
  call @mutex_lock(@m2)
  ret 0
}
`
	_, r := run(t, src, Config{})
	if r.Stall != StallDeadlock {
		t.Errorf("stall = %v, want deadlock", r.Stall)
	}
}

func TestArenaNameFor(t *testing.T) {
	src := `
global @dying = 0
func @main() {
entry:
  ret 0
}
`
	m, _ := run(t, src, Config{})
	addr := m.GlobalAddr("dying")
	if got := m.Mem().NameFor(addr); got != "@dying" {
		t.Errorf("NameFor = %q, want @dying", got)
	}
	if got := m.Mem().NameFor(0xdeadbeef); !strings.HasPrefix(got, "0x") {
		t.Errorf("NameFor unmapped = %q", got)
	}
}

func TestPhiWithoutMatchingEdgeYieldsZero(t *testing.T) {
	// Entering a block from a predecessor with no phi edge gives 0 (the
	// IR analogue of an undef).
	src := `
func @main() {
entry:
  jmp mid
mid:
  jmp target
target:
  %x = phi [entry: 7]
  call @print(%x)
  ret 0
}
`
	_, r := run(t, src, Config{})
	if len(r.Output) != 1 || r.Output[0] != "0" {
		t.Errorf("output = %v, want [0]", r.Output)
	}
}

func TestGepThroughCorruptedPointerFaults(t *testing.T) {
	src := `
func @main() {
entry:
  %p = call @malloc(2)
  %bogus = gep %p, 100
  %v = load %bogus
  ret 0
}
`
	_, r := run(t, src, Config{})
	if len(r.Faults) != 1 || r.Faults[0].Kind != FaultOOB {
		t.Errorf("faults = %v", r.Faults)
	}
}

func TestMachineAccessors(t *testing.T) {
	src := `
global @g = 3
func @main() {
entry:
  call @print(1)
  ret 0
}
`
	mod := ir.MustParse("acc.oir", src)
	m, err := New(Config{Module: mod, Sched: firstSched{}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Mod() != mod {
		t.Error("Mod accessor broken")
	}
	m.Run()
	if len(m.Output()) != 1 || m.Output()[0] != "1" {
		t.Errorf("Output = %v", m.Output())
	}
	if len(m.Faults()) != 0 {
		t.Errorf("Faults = %v", m.Faults())
	}
	if m.UID() != 1000 {
		t.Errorf("UID = %d", m.UID())
	}
	if m.GlobalAddr("g") == 0 || m.GlobalAddr("nope") != 0 {
		t.Error("GlobalAddr lookups wrong")
	}
	if m.FuncRef("main") == 0 {
		t.Error("FuncRef(main) = 0")
	}
	if m.FuncForRef(m.FuncRef("main")) != mod.Func("main") {
		t.Error("FuncForRef round trip broken")
	}
	if last, ok := m.LastScheduled(); !ok || last != 0 {
		t.Errorf("LastScheduled = %v, %v", last, ok)
	}
}

// switchRecorder records context-switch notifications.
type switchRecorder struct {
	switches [][2]ThreadID
	nilInstr bool
}

func (r *switchRecorder) OnSwitch(m *Machine, from, to ThreadID, fromInstr, toInstr *ir.Instr) {
	r.switches = append(r.switches, [2]ThreadID{from, to})
	if fromInstr == nil || toInstr == nil {
		r.nilInstr = true
	}
}

func TestSwitchObserverSeesContextSwitches(t *testing.T) {
	src := `
global @counter = 0
func @worker(%n) {
entry:
  %v = load @counter
  %v2 = add %v, %n
  store %v2, @counter
  ret %n
}
func @main() {
entry:
  %t1 = call @spawn(@worker, 10)
  %t2 = call @spawn(@worker, 20)
  %r1 = call @join(%t1)
  %r2 = call @join(%t2)
  ret 0
}
`
	rec := &switchRecorder{}
	mod, err := ir.Parse("test.oir", src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Module: mod, Sched: &rr{last: -1},
		SwitchObservers: []SwitchObserver{rec}})
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if len(rec.switches) == 0 {
		t.Fatal("round-robin over three threads produced no context switches")
	}
	if rec.nilInstr {
		t.Error("switch notification carried a nil instruction")
	}
	for i, sw := range rec.switches {
		if sw[0] == sw[1] {
			t.Errorf("switch %d: from == to == %d", i, sw[0])
		}
	}
	// Cross-check against the recorded schedule: the notifications must
	// be exactly the thread-boundary transitions of the executed trace.
	want := 0
	for i := 1; i < len(res.Schedule); i++ {
		if res.Schedule[i] != res.Schedule[i-1] {
			want++
		}
	}
	if len(rec.switches) != want {
		t.Errorf("got %d switch notifications, schedule has %d boundaries", len(rec.switches), want)
	}
}

func TestNoSwitchObserverNoTracking(t *testing.T) {
	src := `
func @main() {
entry:
  ret 0
}
`
	_, r := run(t, src, Config{})
	if r.ExitCode != 0 {
		t.Errorf("exit = %d", r.ExitCode)
	}
}
