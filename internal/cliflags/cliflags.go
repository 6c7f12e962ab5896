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
	"os"
	"strings"

	"github.com/conanalysis/owl/internal/faultinject"
	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/owl"
)

// Shared holds the parsed values of the flags both binaries accept. The
// pipeline flags bind straight into Pipeline, so owl.Options is the one
// declaration of each; the other fields hold the values that are not
// owl.Options fields. Pipeline.Faults and Pipeline.Metrics are left for
// the binary to fill (see Plan).
type Shared struct {
	Pipeline   owl.Options
	Noise      string
	MetricsOut string
	FaultsPath string
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
	p := &s.Pipeline
	fs.StringVar(&s.Noise, "noise", noise, "workload noise level: light or full")
	fs.StringVar((*string)(&p.Explore), "explore", string(owl.ExploreFixed), "detect-stage schedule exploration: fixed or coverage")
	fs.IntVar(&p.Budget, "budget", 0, "run budget for -explore=coverage and -predict (0 = detect runs)")
	fs.Uint64Var(&p.Seed, "seed", 0, "base seed for -explore=coverage and -predict")
	fs.IntVar(&p.Workers, "workers", d.Workers, workersUsage)
	fs.StringVar(&s.MetricsOut, "metrics", "", `write per-stage metrics JSON to this file ("-" = stdout)`)
	fs.IntVar(&p.MaxSteps, "max-steps", 0, "interpreter step budget per run (0 = program default)")
	fs.DurationVar(&p.StageTimeout, "stage-timeout", 0, "per-stage deadline; an overrunning stage degrades (0 = none)")
	fs.IntVar(&p.Retries, "retries", 0, "extra attempts a faulted run gets before quarantine")
	fs.StringVar(&s.FaultsPath, "faults", "", "deterministic fault-injection plan JSON (see docs/ROBUSTNESS.md)")
	fs.BoolVar(&p.FailFast, "fail-fast", d.FailFast, "error out on the first faulted stage instead of degrading")
	fs.BoolVar(&p.Predict, "predict", false, "predictive race detection: predict pairs from seed traces, confirm with steered replays (docs/PREDICTION.md)")
	fs.BoolVar(&p.PredictReversal, "predict-reversal", false, "with -predict: also predict optimistic sync-reversal pairs (confirmation filters infeasible ones)")
	return s
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

// EmitMetrics writes the collector snapshot named by a -metrics flag
// ("-" = stdout); a nil collector (no -metrics flag) is a no-op.
func EmitMetrics(mc *metrics.Collector, path string) error {
	if mc == nil {
		return nil
	}
	if path == "-" {
		return mc.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if err := mc.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
