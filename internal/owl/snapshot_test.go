package owl

import (
	"strings"
	"testing"

	"github.com/conanalysis/owl/internal/metrics"
)

// dropSnapCounters removes the snapshot-cache accounting lines from a
// countersOf rendering: sched.snap_* and interp.cow_* are the only
// counters allowed to differ between snapshotting on and off (they
// describe the cache itself, which exists only when enabled).
func dropSnapCounters(counters string) string {
	var keep []string
	for _, line := range strings.Split(counters, "\n") {
		if strings.HasPrefix(line, "sched.snap_") || strings.HasPrefix(line, "interp.cow_") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// TestSnapshotCacheDifferentialGate is the acceptance gate for
// prefix-sharing exploration: the full coverage-guided pipeline must
// produce byte-identical results — reports, findings, coverage, and
// every counter except the snapshot counters themselves — with
// snapshotting off and on, across worker counts 1, 4, and 8.
func TestSnapshotCacheDifferentialGate(t *testing.T) {
	for _, name := range []string{"libsafe", "ssdb"} {
		t.Run(name, func(t *testing.T) {
			p, _ := coverageProgram(t, name)
			var baseFP, baseCounters string
			var sawHit bool
			cases := []struct {
				snap, workers int
			}{
				{-1, 1}, // reference: snapshotting off
				{0, 1},  // production: snapCacheEntries
				{0, 4},
				{0, 8},
				{3, 1}, // a tiny cache must also preserve results
			}
			for _, tc := range cases {
				mc := metrics.New()
				res, err := Run(p, Options{
					Explore: ExploreCoverage, Budget: 24, Seed: 7,
					Workers: tc.workers, EnableAtomicity: true,
					snapEntries: tc.snap, Metrics: mc,
				})
				if err != nil {
					t.Fatalf("snap=%d workers=%d: %v", tc.snap, tc.workers, err)
				}
				fp, cs := fingerprint(res), dropSnapCounters(countersOf(mc))
				if tc.snap < 0 {
					baseFP, baseCounters = fp, cs
					if baseFP == "" {
						t.Fatal("reference run produced an empty result")
					}
					continue
				}
				if fp != baseFP {
					t.Errorf("snap=%d workers=%d result differs:\n--- off\n%s--- on\n%s",
						tc.snap, tc.workers, baseFP, fp)
				}
				if cs != baseCounters {
					t.Errorf("snap=%d workers=%d counters differ:\n--- off\n%s\n--- on\n%s",
						tc.snap, tc.workers, baseCounters, cs)
				}
				for _, c := range mc.Snapshot().Counters {
					if c.Name == "sched.snap_hits" && c.Value > 0 {
						sawHit = true
					}
				}
			}
			if !sawHit {
				t.Error("no configuration ever hit the snapshot cache; prefix sharing is inert")
			}
		})
	}
}
