// Package cliflags defines the flag set shared by cmd/owl and
// cmd/owl-tables in one place. The two binaries drifted once (-seed,
// -fail-fast, and -max-steps existed only on cmd/owl); registering the
// shared flags through one helper makes that structurally impossible,
// and the parity test in each main package pins every binary to the
// canonical list.
package cliflags

import (
	"flag"
	"fmt"
	"net/url"
	"strings"
	"time"

	"github.com/conanalysis/owl/internal/faultinject"
	"github.com/conanalysis/owl/internal/owl"
)

// Shared holds the parsed values of the flags both binaries accept.
type Shared struct {
	Noise           string
	Explore         string
	Budget          int
	Seed            uint64
	Workers         int
	MetricsOut      string
	MaxSteps        int
	StageTimeout    time.Duration
	Retries         int
	FaultsPath      string
	FailFast        bool
	Predict         bool
	PredictReversal bool
}

// Defaults carries the few per-binary differences: default values and
// the workers usage string (the binaries fan out over different units).
type Defaults struct {
	Noise        string // "" = light
	Workers      int
	WorkersUsage string
	FailFast     bool
}

// Names returns the canonical shared flag names; the per-binary parity
// tests assert each binary's flag set contains every one of them.
func Names() []string {
	return []string{
		"noise", "explore", "budget", "seed", "workers",
		"metrics", "max-steps", "stage-timeout", "retries", "faults",
		"fail-fast", "predict", "predict-reversal",
	}
}

// Register installs the shared flags on fs and returns the value holder.
func Register(fs *flag.FlagSet, d Defaults) *Shared {
	s := &Shared{}
	noise := d.Noise
	if noise == "" {
		noise = "light"
	}
	workersUsage := d.WorkersUsage
	if workersUsage == "" {
		workersUsage = "worker pool size (0 = NumCPU)"
	}
	fs.StringVar(&s.Noise, "noise", noise, "workload noise level: light or full")
	fs.StringVar(&s.Explore, "explore", "fixed", "detect-stage schedule exploration: fixed or coverage")
	fs.IntVar(&s.Budget, "budget", 0, "run budget for -explore=coverage and -predict (0 = detect runs)")
	fs.Uint64Var(&s.Seed, "seed", 0, "base seed for -explore=coverage and -predict")
	fs.IntVar(&s.Workers, "workers", d.Workers, workersUsage)
	fs.StringVar(&s.MetricsOut, "metrics", "", `write per-stage metrics JSON to this file ("-" = stdout)`)
	fs.IntVar(&s.MaxSteps, "max-steps", 0, "interpreter step budget per run (0 = program default)")
	fs.DurationVar(&s.StageTimeout, "stage-timeout", 0, "per-stage deadline; an overrunning stage degrades (0 = none)")
	fs.IntVar(&s.Retries, "retries", 0, "extra attempts a faulted run gets before quarantine")
	fs.StringVar(&s.FaultsPath, "faults", "", "deterministic fault-injection plan JSON (see docs/ROBUSTNESS.md)")
	fs.BoolVar(&s.FailFast, "fail-fast", d.FailFast, "error out on the first faulted stage instead of degrading")
	fs.BoolVar(&s.Predict, "predict", false, "predictive race detection: predict pairs from seed traces, confirm with steered replays (docs/PREDICTION.md)")
	fs.BoolVar(&s.PredictReversal, "predict-reversal", false, "with -predict: also predict optimistic sync-reversal pairs (confirmation filters infeasible ones)")
	return s
}

// Mode validates and returns the exploration mode.
func (s *Shared) Mode() (owl.ExploreMode, error) {
	mode := owl.ExploreMode(s.Explore)
	if mode != owl.ExploreFixed && mode != owl.ExploreCoverage {
		return "", fmt.Errorf("unknown -explore mode %q (want fixed or coverage)", s.Explore)
	}
	return mode, nil
}

// ParsePeers splits and validates a -peers value: a comma-separated
// list of http(s) base URLs, one per fleet replica. Entries are trimmed
// and empties dropped, so trailing commas are harmless; a trailing
// slash is stripped so the client can join paths naively. An empty
// value returns nil — replication off.
func ParsePeers(v string) ([]string, error) {
	if strings.TrimSpace(v) == "" {
		return nil, nil
	}
	var out []string
	for _, part := range strings.Split(v, ",") {
		p := strings.TrimSpace(part)
		if p == "" {
			continue
		}
		u, err := url.Parse(p)
		if err != nil {
			return nil, fmt.Errorf("peer %q: %w", p, err)
		}
		if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("peer %q: want an http(s) base URL like http://replica-2:8080", p)
		}
		out = append(out, strings.TrimRight(p, "/"))
	}
	return out, nil
}

// Plan loads the fault-injection plan named by -faults; nil when unset.
func (s *Shared) Plan() (*faultinject.Plan, error) {
	if s.FaultsPath == "" {
		return nil, nil
	}
	return faultinject.Load(s.FaultsPath)
}
