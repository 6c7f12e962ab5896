package cliflags

import (
	"flag"
	"io"
	"testing"
	"time"

	"github.com/conanalysis/owl/internal/owl"
)

func newSet(d Defaults) (*flag.FlagSet, *Shared) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs, Register(fs, d)
}

func TestNamesAllRegistered(t *testing.T) {
	fs, _ := newSet(Defaults{})
	for _, name := range Names() {
		if fs.Lookup(name) == nil {
			t.Errorf("Names() lists %q but Register did not define it", name)
		}
	}
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != len(Names()) {
		t.Errorf("Register defined %d flags, Names() lists %d — keep them in lockstep", n, len(Names()))
	}
}

func TestDefaultsApplied(t *testing.T) {
	fs, s := newSet(Defaults{Noise: "full", Workers: 3, FailFast: true})
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if s.Noise != "full" || s.Workers != 3 || !s.FailFast {
		t.Errorf("per-binary defaults not applied: %+v", s)
	}
	fs2, s2 := newSet(Defaults{})
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if s2.Noise != "light" || s2.Workers != 0 || s2.FailFast {
		t.Errorf("zero Defaults should mean light/0/degrade: %+v", s2)
	}
	if s2.Predict || s2.PredictReversal {
		t.Error("prediction must default off")
	}
}

func TestParseSharedFlags(t *testing.T) {
	fs, s := newSet(Defaults{})
	err := fs.Parse([]string{
		"-explore", "coverage", "-budget", "32", "-seed", "7",
		"-max-steps", "1000", "-stage-timeout", "30s",
		"-predict", "-predict-reversal", "-fail-fast",
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Budget != 32 || s.Seed != 7 || s.MaxSteps != 1000 {
		t.Errorf("numeric flags misparsed: %+v", s)
	}
	if s.StageTimeout != 30*time.Second {
		t.Errorf("StageTimeout = %v", s.StageTimeout)
	}
	if !s.Predict || !s.PredictReversal || !s.FailFast {
		t.Errorf("bool flags misparsed: %+v", s)
	}
	mode, err := s.Mode()
	if err != nil || mode != owl.ExploreCoverage {
		t.Errorf("Mode() = %v, %v", mode, err)
	}
}

func TestModeRejectsUnknown(t *testing.T) {
	fs, s := newSet(Defaults{})
	if err := fs.Parse([]string{"-explore", "bogus"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Mode(); err == nil {
		t.Error("Mode() accepted bogus explore mode")
	}
}

// TestRemovedFlagsRejected pins that the execution path is not
// selectable: the compiled engine and the per-stage snapshot cache are
// always on, so no -engine or -snap-cache flag may parse.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, args := range [][]string{{"-engine", "tree"}, {"-snap-cache", "0"}} {
		fs, _ := newSet(Defaults{})
		if err := fs.Parse(args); err == nil {
			t.Errorf("%v parsed; the flag should no longer exist", args)
		}
	}
}

func TestPlanNilWhenUnset(t *testing.T) {
	fs, s := newSet(Defaults{})
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	plan, err := s.Plan()
	if plan != nil || err != nil {
		t.Errorf("Plan() = %v, %v; want nil, nil", plan, err)
	}
}

func TestParsePeers(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
		ok   bool
	}{
		{"", nil, true},
		{"  ", nil, true},
		{"http://a:8080", []string{"http://a:8080"}, true},
		{"http://a:8080/, https://b:9090 ,", []string{"http://a:8080", "https://b:9090"}, true},
		{"a:8080", nil, false},
		{"ftp://a:8080", nil, false},
		{"http://", nil, false},
	} {
		got, err := ParsePeers(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParsePeers(%q) error = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if !tc.ok {
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("ParsePeers(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("ParsePeers(%q)[%d] = %q, want %q", tc.in, i, got[i], tc.want[i])
			}
		}
	}
}
