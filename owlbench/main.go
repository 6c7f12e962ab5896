// Command owlbench is OWL's end-to-end benchmark. It drives the pipeline
// from outside, through the packages' public functions, on one of three
// workloads, and prints one JSON result line:
//
//	go run . --workload verify-heavy --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of one
// untraced timed pass. With --trace 1 it runs an untraced pass, then a
// traced pass whose spans (recorded around every call into a layer) are
// written under .bench_build/owlbench/, then per-layer probes, and the
// result carries the per-layer metrics. See README.md for the workloads,
// the metrics and what each layer metric should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// A run sets its workload up at least minSetups times, and goes on while
// its set-ups have taken less than setupBudget in all, up to maxSetups.
// setup_s is the median, so a set-up of a few milliseconds is repeated
// often enough to be steady. The timed passes use the last set-up.
const (
	minSetups   = 5
	maxSetups   = 100
	setupBudget = time.Second
)

// outDir holds what a run leaves behind: traces, results and the serve
// state directories. It sits under the build directory the benchmark's
// checkout ignores.
const outDir = ".bench_build/owlbench"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec is one metric BENCHMARK.json declares.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadSpec reads the end-to-end and per-layer metric lists from the
// BENCHMARK.json at the checkout root, the one place that names them.
func loadSpec(path string) (endToEnd, perLayer []metricSpec, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, spec.PerLayer, nil
}

// passResult is what one timed pass measured.
type passResult struct {
	jobs    int // completed and passed their check
	elapsed time.Duration
	latMS   []float64 // per counted job, first submit to result
	peakMB  float64
	tally   *tally
}

func (p *passResult) jobsPerSec() float64 { return float64(p.jobs) / p.elapsed.Seconds() }

// env is one set-up workload.
type env interface {
	// pass runs jobs for about d and measures them; tr is nil for the
	// untraced pass.
	pass(d time.Duration, tr *Tracer) (*passResult, error)
	// layers fills the per-layer metrics from the traced pass and from
	// probes it runs itself, counting probe jobs into t.
	layers(tr *Tracer, out map[string]float64, t *tally) error
	close()
}

// workload is one named benchmark workload.
type workload struct {
	name string
	// setup builds the corpus, boots what the workload needs and warms it
	// up; buildMS receives the per-module build times in ms.
	setup func(seed uint64, buildMS *[]float64) (env, error)
}

var registry = []workload{verifyHeavy, exploreLight, serveMixed}

// provenance identifies what produced a result.
type provenance struct {
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       uint64 `json:"seed"`
	Workload   string `json:"workload"`
	Traced     bool   `json:"traced"`
	Seconds    int    `json:"seconds"`
	Started    string `json:"started"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "owlbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("owlbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload to run: verify-heavy, explore-light or serve-mixed")
	seed := fl.Uint64("seed", 1, "workload seed")
	seconds := fl.Int("seconds", 20, "length of each timed pass in seconds")
	trace := fl.Int("trace", 0, "1 = traced pass and per-layer metrics, 0 = end-to-end metrics")
	if err := fl.Parse(args); err != nil {
		return err
	}
	var wl *workload
	for i := range registry {
		if registry[i].name == *name {
			wl = &registry[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1")
	}
	prov := provenance{
		Commit:     commit(),
		SourceHash: sourceHash("."),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       *seed,
		Workload:   wl.name,
		Traced:     *trace == 1,
		Seconds:    *seconds,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
	endToEnd, perLayer, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	var (
		e       env
		setups  []float64
		spent   time.Duration
		buildMS []float64
	)
	for len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups) {
		if e != nil {
			e.close()
		}
		runtime.GC() // collect the previous set-up's garbage outside the timing
		start := time.Now()
		var err error
		if e, err = wl.setup(*seed, &buildMS); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		d := time.Since(start)
		spent += d
		setups = append(setups, d.Seconds())
	}
	defer e.close()

	// A traced run splits its time between the untraced and the traced
	// pass, so both modes measure about --seconds of jobs.
	d := time.Duration(*seconds) * time.Second
	if *trace == 1 {
		d /= 2
	}
	plain, err := e.pass(d, nil)
	if err != nil {
		return err
	}
	all := newTally()
	all.merge(plain.tally)
	logf("untraced pass: %d jobs in %.2fs (%.3f jobs/s)", plain.jobs, plain.elapsed.Seconds(), plain.jobsPerSec())

	values := map[string]float64{}
	units := endToEnd
	if *trace == 0 {
		values["setup_s"] = median(setups)
		values["jobs_per_s"] = plain.jobsPerSec()
		values["job_p50_ms"] = percentile(plain.latMS, 0.50)
		values["job_p90_ms"] = percentile(plain.latMS, 0.90)
		values["success_frac"] = 1 - plain.tally.failedFrac()
		values["peak_heap_mb"] = plain.peakMB
		logf("job latency: %d samples, %d beyond p90", len(plain.latMS), tailSamples(len(plain.latMS), 0.90))
	} else {
		units = perLayer
		tr := newTracer()
		traced, err := e.pass(d, tr)
		if err != nil {
			return err
		}
		all.merge(traced.tally)
		logf("traced pass: %d jobs in %.2fs (%.3f jobs/s)", traced.jobs, traced.elapsed.Seconds(), traced.jobsPerSec())
		values["ir.build_ms"] = median(buildMS)
		values["trace.jobs_per_s"] = traced.jobsPerSec()
		values["trace.overhead_frac"] = 1 - traced.jobsPerSec()/plain.jobsPerSec()
		if err := e.layers(tr, values, all); err != nil {
			return err
		}
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", wl.name, *seed))
		if err := writeTrace(path, prov, tr.Spans()); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		logf("spans written to %s", path)
	}

	out := map[string]metric{}
	for _, m := range units {
		v, ok := values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		out[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	attempted, failed := all.counts()
	if failed > 0 {
		logf("failures: %s", all.describe())
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, attempted, failed, out}

	record, err := json.Marshal(struct {
		Provenance provenance        `json:"provenance"`
		Setups     []float64         `json:"setup_s_each"`
		Samples    int               `json:"latency_samples"`
		Metrics    map[string]metric `json:"metrics"`
	}{prov, setups, len(plain.latMS), out})
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", wl.name, *seed, *trace))
	if err := os.WriteFile(path, record, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "provenance: %s\n", mustJSON(prov))
	printTable(stdout, units, out)
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// printTable prints every metric by name and unit, one per line.
func printTable(w io.Writer, units []metricSpec, out map[string]metric) {
	for _, m := range units {
		fmt.Fprintf(w, "%-32s %14.4f %s\n", m.Name, out[m.Name].Value, m.Unit)
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "owlbench: "+format+"\n", args...)
}

// commit is the repository commit the benchmark was built from, as
// run.sh reads it from git ("unknown" in a checkout without history).
func commit() string {
	if c := os.Getenv("OWLBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// sourceHash fingerprints the Go sources and module files under root,
// skipping the build directory, so results from checkouts without git
// history still name the code they measured.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
