// Package workloads provides faithful IR models of the programs the paper
// studies (§3, §8): Libsafe, the Linux kernel's uselib/msync races, MySQL,
// SSDB, Apache (both the #25520 buffered-log attack and the #46215
// balancer DoS), Chrome, and Memcached. Each model preserves the studied
// bug's structure — the racing accesses, the bug-to-attack propagation
// (data vs control dependence, cross-function spread, shared call-stack
// prefixes), and the vulnerable-site type — plus a configurable amount of
// benign-race noise so that the report-reduction dynamics of Table 3
// reproduce in shape.
//
// Each workload carries named input recipes ("benign", "attack", ...): the
// paper's Finding III is that concurrency bugs and their attacks trigger
// under separate, subtle inputs, so the recipes differ in payload sizes,
// query sequences, and IO timings (io_delay), and the attack drivers in
// internal/attack measure how many repetitions each recipe needs.
package workloads

import (
	"fmt"
	"sort"
	"strings"

	"github.com/conanalysis/owl/internal/ir"
)

// Consequence classifies what a successful attack does — the oracle
// dimension used by internal/attack.
type Consequence int

// Attack consequences observed in the study.
const (
	ConsequencePrivEscalation Consequence = iota + 1
	ConsequenceCodeInjection
	ConsequenceUseAfterFree
	ConsequenceDoubleFree
	ConsequenceNullDeref
	ConsequenceHTMLIntegrity
	ConsequenceDoS
	ConsequenceBufferOverflow
)

func (c Consequence) String() string {
	switch c {
	case ConsequencePrivEscalation:
		return "privilege escalation"
	case ConsequenceCodeInjection:
		return "malicious code injection"
	case ConsequenceUseAfterFree:
		return "use after free"
	case ConsequenceDoubleFree:
		return "double free"
	case ConsequenceNullDeref:
		return "null pointer dereference"
	case ConsequenceHTMLIntegrity:
		return "HTML integrity violation"
	case ConsequenceDoS:
		return "denial of service"
	case ConsequenceBufferOverflow:
		return "buffer overflow"
	default:
		return fmt.Sprintf("Consequence(%d)", int(c))
	}
}

// AttackSpec describes one known concurrency attack the model reproduces.
type AttackSpec struct {
	// ID names the attack like the paper does ("CVE-2016-1000324",
	// "Apache-25520", "Linux-2.6.10 uselib").
	ID string
	// VulnType is the Table-4 vulnerability-type string.
	VulnType string
	// SubtleInput is the Table-4 "subtle inputs" description.
	SubtleInput string
	// InputRecipe is the name of the workload input recipe that exploits
	// the attack.
	InputRecipe string
	// Consequence is what the oracle checks after a successful run.
	Consequence Consequence
	// SiteCallee / SiteFunc locate the vulnerable site for matching
	// Algorithm-1 findings: the callee name of a call site ("" for
	// non-call sites) and the containing function.
	SiteCallee string
	SiteFunc   string
	// RacyVar is the racing variable's memory name ("@dying").
	RacyVar string
	// CrossFunction records whether bug and site live in different
	// functions (study Finding II).
	CrossFunction bool
}

// Recipe is one named input configuration.
type Recipe struct {
	Name   string
	Inputs []int64
	// Note documents what the inputs mean.
	Note string
}

// Workload is one modelled program.
type Workload struct {
	// Name is the short registry key ("apache-log"); RealName the paper's
	// program/version ("Apache-2.0.48").
	Name     string
	RealName string
	Module   *ir.Module
	Entry    string
	// Kernel marks workloads detected with the SKI-style explorer rather
	// than the TSAN-style detector.
	Kernel   bool
	MaxSteps int
	Recipes  []Recipe
	Attacks  []AttackSpec
	// PaperRaceReports / PaperAttacks record the Table-1 numbers for
	// EXPERIMENTS.md comparisons.
	PaperRaceReports int
	PaperAttacks     int
	// PaperLoC is the studied program's size (Table 1).
	PaperLoC string
}

// Recipe returns the named input recipe (or the first one).
func (w *Workload) Recipe(name string) Recipe {
	for _, r := range w.Recipes {
		if r.Name == name {
			return r
		}
	}
	if len(w.Recipes) > 0 {
		return w.Recipes[0]
	}
	return Recipe{Name: "default"}
}

// DefaultRecipe names the recipe a run uses when none is asked for: the
// first attack's recipe, else the first recipe ("" when there is none).
func (w *Workload) DefaultRecipe() string {
	if len(w.Attacks) > 0 {
		return w.Attacks[0].InputRecipe
	}
	if len(w.Recipes) > 0 {
		return w.Recipes[0].Name
	}
	return ""
}

// registry holds the built-in workloads, constructed lazily because module
// building is non-trivial.
var builders = map[string]func(NoiseLevel) *Workload{}

// NoiseLevel scales how much benign-race noise a workload model carries.
// Tests use NoiseLight to stay fast; the table harness uses NoiseFull to
// approximate the paper's report-count shape (scaled ~1/10).
type NoiseLevel int

// Noise levels.
const (
	NoiseLight NoiseLevel = iota + 1
	NoiseFull
)

// ParseNoise maps a -noise flag value onto its level: "" and "light"
// are NoiseLight, "full" is NoiseFull, and anything else is an error.
func ParseNoise(s string) (NoiseLevel, error) {
	switch s {
	case "", "light":
		return NoiseLight, nil
	case "full":
		return NoiseFull, nil
	}
	return 0, fmt.Errorf("unknown noise %q (want light or full)", s)
}

func register(name string, b func(NoiseLevel) *Workload) {
	builders[name] = b
}

// Names returns the registered workload names, sorted.
func Names() []string {
	out := make([]string, 0, len(builders))
	for n := range builders {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Get builds the named workload at the given noise level; nil if unknown.
func Get(name string, lvl NoiseLevel) *Workload {
	b := builders[name]
	if b == nil {
		return nil
	}
	return b(lvl)
}

// All builds every registered workload.
func All(lvl NoiseLevel) []*Workload {
	var out []*Workload
	for _, n := range Names() {
		out = append(out, Get(n, lvl))
	}
	return out
}

// noiseSpec configures the benign-race generator.
type noiseSpec struct {
	// adhoc: busy-wait flag syncs (annotated away by §5.1).
	adhoc int
	// solid: verifiable benign counter races (survive to analysis, no
	// findings).
	solid int
	// flaky: index-collision races over a small array; the detector's
	// happens-before check flags them, but the racing moment re-collides
	// rarely, so the dynamic verifier eliminates most (Table 3's R.V.E.).
	flaky int
	// flakySpread is the array size K; larger K = more elimination.
	flakySpread int
	// gated: ordered-in-practice data publications behind a spin-wait
	// flag. Happens-before detectors see no edge through the plain
	// flag loads/stores and report the data race, but the racing moment
	// can never be produced (the reader cannot reach its access until the
	// writer has passed its own), so the dynamic race verifier eliminates
	// every one — the dominant population of the paper's R.V.E. column
	// (e.g. Memcached: 5372 of 5376 reports eliminated). The flag itself
	// is a textbook ad-hoc sync mined by §5.1.
	gated int
}

func (n noiseSpec) scale(lvl NoiseLevel, full noiseSpec) noiseSpec {
	if lvl == NoiseFull {
		return full
	}
	return n
}

// genNoise emits .oir source for the noise units plus a @noise_run
// function that main should call (it spawns the noise workers and a
// @noise_join(%h) to join them; handle is returned in a global).
func genNoise(spec noiseSpec) string {
	var b strings.Builder
	if spec.flakySpread <= 0 {
		spec.flakySpread = 16
	}
	total := spec.adhoc + spec.solid + spec.flaky + spec.gated
	fmt.Fprintf(&b, "global @noise_tids [%d]\n", maxInt(total, 1))

	for i := 0; i < spec.adhoc; i++ {
		fmt.Fprintf(&b, `
global @nz_adhoc_%[1]d = 0
func @nz_adhoc_worker_%[1]d() {
entry:
  jmp wait
wait:
  %%f = load @nz_adhoc_%[1]d
  %%c = icmp ne %%f, 0
  br %%c, go, wait
go:
  ret 0
}
`, i)
	}
	for i := 0; i < spec.solid; i++ {
		fmt.Fprintf(&b, `
global @nz_cnt_%[1]d = 0
func @nz_cnt_worker_%[1]d() {
entry:
  %%v = load @nz_cnt_%[1]d
  %%v2 = add %%v, 1
  store %%v2, @nz_cnt_%[1]d
  ret 0
}
`, i)
	}
	for i := 0; i < spec.flaky; i++ {
		fmt.Fprintf(&b, `
global @nz_flk_%[1]d [%[2]d]
func @nz_flk_worker_%[1]d() {
entry:
  %%i = call @rand(%[2]d)
  %%p = addr @nz_flk_%[1]d
  %%q = gep %%p, %%i
  store 1, %%q
  ret 0
}
`, i, spec.flakySpread)
	}

	// Gated units share one gate flag per group of gateGroup, so the
	// number of distinct ad-hoc synchronizations stays small (the paper
	// found 22 unique static ad-hoc syncs) while each unit contributes an
	// ordered-in-practice data race for the verifier to eliminate.
	const gateGroup = 8
	for g := 0; g < (spec.gated+gateGroup-1)/gateGroup; g++ {
		fmt.Fprintf(&b, "\nglobal @nz_ggate_%d = 0\n", g)
	}
	for i := 0; i < spec.gated; i++ {
		fmt.Fprintf(&b, `
global @nz_gdata_%[1]d = 0
func @nz_gated_worker_%[1]d() {
entry:
  jmp wait
wait:
  call @io_delay(7)
  %%g = load @nz_ggate_%[2]d
  %%c = icmp ne %%g, 0
  br %%c, go, wait
go:
  %%v = load @nz_gdata_%[1]d
  ret %%v
}
`, i, i/gateGroup)
	}

	// noise_run: spawn all workers, poke each unit from this thread (the
	// racing side), and record tids for noise_wait.
	b.WriteString("\nfunc @noise_run() {\nentry:\n")
	idx := 0
	spawnAndRecord := func(fn string) {
		fmt.Fprintf(&b, "  %%t%d = call @spawn(@%s)\n", idx, fn)
		fmt.Fprintf(&b, "  %%p%d = addr @noise_tids\n", idx)
		fmt.Fprintf(&b, "  %%q%d = gep %%p%d, %d\n", idx, idx, idx)
		fmt.Fprintf(&b, "  store %%t%d, %%q%d\n", idx, idx)
		idx++
	}
	for i := 0; i < spec.adhoc; i++ {
		spawnAndRecord(fmt.Sprintf("nz_adhoc_worker_%d", i))
	}
	for i := 0; i < spec.solid; i++ {
		spawnAndRecord(fmt.Sprintf("nz_cnt_worker_%d", i))
	}
	for i := 0; i < spec.flaky; i++ {
		spawnAndRecord(fmt.Sprintf("nz_flk_worker_%d", i))
	}
	for i := 0; i < spec.gated; i++ {
		spawnAndRecord(fmt.Sprintf("nz_gated_worker_%d", i))
	}
	// Racing main-side accesses. Each gated unit publishes its data, and
	// only after a group's publications does its gate open; every data
	// race is therefore ordered in practice.
	for i := 0; i < spec.gated; i++ {
		fmt.Fprintf(&b, "  %%gv%d = call @rand(100)\n", i)
		fmt.Fprintf(&b, "  store %%gv%d, @nz_gdata_%d\n", i, i)
		if (i+1)%gateGroup == 0 || i == spec.gated-1 {
			fmt.Fprintf(&b, "  store 1, @nz_ggate_%d\n", i/gateGroup)
		}
	}
	for i := 0; i < spec.solid; i++ {
		fmt.Fprintf(&b, "  %%mv%d = load @nz_cnt_%d\n", i, i)
		fmt.Fprintf(&b, "  %%mw%d = add %%mv%d, 1\n", i, i)
		fmt.Fprintf(&b, "  store %%mw%d, @nz_cnt_%d\n", i, i)
	}
	for i := 0; i < spec.flaky; i++ {
		fmt.Fprintf(&b, "  %%fi%d = call @rand(%d)\n", i, spec.flakySpread)
		fmt.Fprintf(&b, "  %%fp%d = addr @nz_flk_%d\n", i, i)
		fmt.Fprintf(&b, "  %%fq%d = gep %%fp%d, %%fi%d\n", i, i, i)
		fmt.Fprintf(&b, "  %%fv%d = load %%fq%d\n", i, i)
	}
	// Release the adhoc waiters last so they spin a little.
	for i := 0; i < spec.adhoc; i++ {
		fmt.Fprintf(&b, "  store 1, @nz_adhoc_%d\n", i)
	}
	b.WriteString("  ret 0\n}\n")

	// noise_wait: join every recorded tid.
	fmt.Fprintf(&b, `
func @noise_wait() {
entry:
  jmp head
head:
  %%i = phi [entry: 0], [body: %%i2]
  %%c = icmp lt %%i, %d
  br %%c, body, done
body:
  %%p = addr @noise_tids
  %%q = gep %%p, %%i
  %%t = load %%q
  %%r = call @join(%%t)
  %%i2 = add %%i, 1
  jmp head
done:
  ret 0
}
`, total)
	return b.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// build parses the workload source (attack model + generated noise) into a
// frozen module, panicking on error: workload sources are static program
// data, so a parse failure is a bug.
func build(name, src string) *ir.Module {
	return ir.MustParse(name+".oir", src)
}
