package callstack

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"github.com/conanalysis/owl/internal/ir"
)

func stack(fns ...string) Stack {
	s := make(Stack, len(fns))
	for i, fn := range fns {
		s[i] = Entry{Fn: fn, Pos: ir.Pos{File: "f.oir", Line: i + 1}}
	}
	return s
}

func TestHasPrefix(t *testing.T) {
	bug := stack("main", "libsafe_strcpy", "stack_check")
	site := stack("main", "libsafe_strcpy", "stack_check", "strcpy")
	if !site.HasPrefix(bug) {
		t.Error("bug stack should be a prefix of site stack (Figure 4)")
	}
	if bug.HasPrefix(site) {
		t.Error("longer stack cannot be a prefix of a shorter one")
	}
	other := stack("main", "other_fn", "stack_check")
	if site.HasPrefix(other) {
		t.Error("mismatched middle frame accepted")
	}
	if !site.HasPrefix(Stack{}) {
		t.Error("empty stack is a prefix of everything")
	}
}

func TestSharedPrefixLenAndLevels(t *testing.T) {
	a := stack("main", "f", "g")
	b := stack("main", "f", "h", "i")
	if got := a.SharedPrefixLen(b); got != 2 {
		t.Errorf("shared = %d, want 2", got)
	}
	// a is 1 level above the shared prefix — the paper's "one or two
	// levels up" pattern.
	if got := a.LevelsAbove(b); got != 1 {
		t.Errorf("levels = %d, want 1", got)
	}
}

func TestInnermostAndFuncs(t *testing.T) {
	s := stack("main", "worker")
	if s.Innermost().Fn != "worker" {
		t.Errorf("innermost = %v", s.Innermost())
	}
	if (Stack{}).Innermost().Fn != "" {
		t.Error("empty innermost should be zero")
	}
	fns := s.Funcs()
	if len(fns) != 2 || fns[0] != "main" || fns[1] != "worker" {
		t.Errorf("funcs = %v", fns)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := stack("a", "b")
	c := s.Clone()
	c[0].Fn = "mutated"
	if s[0].Fn != "a" {
		t.Error("clone aliases original")
	}
}

func TestStringInnermostFirst(t *testing.T) {
	s := stack("libsafe_strcpy", "stack_check")
	str := s.String()
	lines := strings.Split(str, "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "stack_check") {
		t.Errorf("stack should print innermost first:\n%s", str)
	}
	if (Stack{}).String() != "<empty stack>" {
		t.Errorf("empty stack string = %q", (Stack{}).String())
	}
}

// Property: HasPrefix agrees with SharedPrefixLen.
func TestPrefixProperties(t *testing.T) {
	mk := func(names []byte) Stack {
		s := make(Stack, 0, len(names)%6)
		for i := 0; i < len(names)%6; i++ {
			s = append(s, Entry{Fn: string('a' + names[i]%3)})
		}
		return s
	}
	f := func(x, y []byte) bool {
		a, b := mk(x), mk(y)
		if b.HasPrefix(a) != (a.SharedPrefixLen(b) == len(a)) {
			return false
		}
		// Reflexivity: every stack is a prefix of itself.
		return a.HasPrefix(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestNodeMaterializeConcurrently: machines restored from one snapshot
// share call-chain nodes and may run on different goroutines, so the
// lazily built prefix must be safe to build from several at once (the
// race detector checks it) and give every caller the same chain.
func TestNodeMaterializeConcurrently(t *testing.T) {
	var n *Node
	want := stack("main", "worker", "helper")
	for _, e := range want {
		n = PushNode(n, e)
	}
	top := Entry{Fn: "leaf"}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := n.Materialize(top)
			if !slices.Equal(got[:len(want)], want) || got[len(want)] != top {
				t.Errorf("materialized %v, want %v then %v", got, want, top)
			}
		}()
	}
	wg.Wait()
}
