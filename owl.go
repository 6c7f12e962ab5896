// Package conanalysis is the public API of the OWL concurrency-attack
// analysis framework — a Go reproduction of "Understanding and Detecting
// Concurrency Attacks" (DSN 2018).
//
// The framework bundles:
//
//   - an SSA-form IR with a textual format (.oir), plus a deterministic
//     concurrent interpreter whose schedules replay exactly;
//   - a ThreadSanitizer-style happens-before race detector and a SKI-style
//     systematic kernel schedule explorer;
//   - OWL's pipeline: ad-hoc synchronization mining and annotation (§5.1),
//     racing-moment race verification with security hints (§5.2),
//     call-stack-directed static vulnerability analysis (Algorithm 1,
//     §6.1), and dynamic vulnerability verification (§6.2);
//   - models of the programs the paper studies (Libsafe, Linux, MySQL,
//     SSDB, Apache, Chrome, Memcached) with exploit drivers, and the
//     harness regenerating the paper's study and evaluation tables.
//
// Quick start — run the pipeline on your own program:
//
//	mod, err := conanalysis.ParseIR("prog.oir", src)
//	res, err := conanalysis.Run(conanalysis.Program{Module: mod}, conanalysis.Options{})
//	for _, atk := range res.Attacks { fmt.Println(atk) }
//
// Or analyze a built-in workload model:
//
//	w := conanalysis.Workload("libsafe", conanalysis.NoiseLight)
//	rec := w.Recipe("attack")
//	res, _ := conanalysis.Run(conanalysis.Program{
//		Module: w.Module, Inputs: rec.Inputs, MaxSteps: w.MaxSteps,
//	}, conanalysis.Options{})
package conanalysis

import (
	"github.com/conanalysis/owl/internal/atomicity"
	"github.com/conanalysis/owl/internal/attack"
	"github.com/conanalysis/owl/internal/eval"
	"github.com/conanalysis/owl/internal/inputsearch"
	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/metrics"
	"github.com/conanalysis/owl/internal/minic"
	"github.com/conanalysis/owl/internal/owl"
	"github.com/conanalysis/owl/internal/race"
	"github.com/conanalysis/owl/internal/report"
	"github.com/conanalysis/owl/internal/sched"
	"github.com/conanalysis/owl/internal/study"
	"github.com/conanalysis/owl/internal/trace"
	"github.com/conanalysis/owl/internal/vuln"
	"github.com/conanalysis/owl/internal/workloads"
)

// Core pipeline types (internal/owl).
type (
	// Program is the unit OWL analyzes: a frozen IR module plus workload
	// configuration.
	Program = owl.Program
	// Options tunes the pipeline stages (ablation switches included). It
	// is the one declaration of every pipeline option: the CLI flags,
	// EvalConfig.Pipeline and the owl-serve job options all map onto it,
	// and Options.Validate is the one check they share.
	Options = owl.Options
	// Result is the full pipeline output.
	Result = owl.Result
	// Stats is the Table-3-style reduction accounting.
	Stats = owl.Stats
	// Attack is a confirmed bug-to-attack propagation.
	Attack = owl.Attack
)

// Run executes the OWL pipeline (Figure 3 of the paper) over the program.
func Run(p Program, opts Options) (*Result, error) { return owl.Run(p, opts) }

// IR types and helpers (internal/ir).
type (
	// Module is a compilation unit of OWL IR.
	Module = ir.Module
	// Builder constructs modules programmatically.
	Builder = ir.Builder
)

// ParseIR parses a module from its textual .oir representation.
func ParseIR(filename, src string) (*Module, error) { return ir.Parse(filename, src) }

// NewBuilder returns a Builder for a new module.
func NewBuilder(name string) *Builder { return ir.NewBuilder(name) }

// Operand is a value use inside an instruction (Builder API).
type Operand = ir.Operand

// ConstOp returns an immediate operand.
func ConstOp(v int64) Operand { return ir.ConstOp(v) }

// RegOp returns a virtual-register operand.
func RegOp(name string) Operand { return ir.RegOp(name) }

// GlobalOp returns a global-variable operand.
func GlobalOp(name string) Operand { return ir.GlobalOp(name) }

// FuncOp returns a function-reference operand.
func FuncOp(name string) Operand { return ir.FuncOp(name) }

// Interpreter surface (internal/interp, internal/sched).
type (
	// Machine executes a program deterministically.
	Machine = interp.Machine
	// MachineConfig configures a machine run.
	MachineConfig = interp.Config
	// MachineResult summarizes a run.
	MachineResult = interp.Result
	// Scheduler picks the next thread each step.
	Scheduler = interp.Scheduler
	// Observer consumes runtime events (attach via MachineConfig).
	Observer = interp.Observer
	// Event is one runtime event delivered to observers.
	Event = interp.Event
)

// NewMachine builds an interpreter for the configuration.
func NewMachine(cfg MachineConfig) (*Machine, error) { return interp.New(cfg) }

// NewRandomScheduler returns a seeded uniformly random scheduler.
func NewRandomScheduler(seed uint64) Scheduler { return sched.NewRandom(seed) }

// NewRoundRobinScheduler returns a round-robin scheduler.
func NewRoundRobinScheduler(quantum int) Scheduler { return sched.NewRoundRobin(quantum) }

// Race detection (internal/race).
type (
	// RaceDetector is the TSAN-style happens-before detector; attach it as
	// an interpreter observer.
	RaceDetector = race.Detector
	// RaceReport is one deduplicated data race.
	RaceReport = race.Report
)

// NewRaceDetector returns a fresh detector.
func NewRaceDetector() *RaceDetector { return race.NewDetector() }

// Vulnerability analysis (internal/vuln).
type (
	// Analyzer runs Algorithm 1 (§6.1).
	Analyzer = vuln.Analyzer
	// Finding is a potential bug-to-attack propagation.
	Finding = vuln.Finding
	// SiteRegistry maps operations to the five vulnerable-site types.
	SiteRegistry = vuln.Registry
)

// NewAnalyzer returns an Algorithm-1 analyzer over the module.
func NewAnalyzer(mod *Module) *Analyzer { return vuln.NewAnalyzer(mod) }

// DefaultSites returns the paper's five vulnerable-site types.
func DefaultSites() *SiteRegistry { return vuln.DefaultRegistry() }

// Workload models and exploit drivers (internal/workloads, internal/attack).
type (
	// WorkloadModel is one modelled program from the paper's study.
	WorkloadModel = workloads.Workload
	// AttackSpec describes a known concurrency attack a model reproduces.
	AttackSpec = workloads.AttackSpec
	// ExploitDriver runs exploit campaigns (the paper's exploit scripts).
	ExploitDriver = attack.Driver
	// NoiseLevel scales a model's benign-race noise.
	NoiseLevel = workloads.NoiseLevel
)

// Noise levels for workload construction.
const (
	NoiseLight = workloads.NoiseLight
	NoiseFull  = workloads.NoiseFull
)

// Workload builds a named workload model ("apache", "chrome", "libsafe",
// "linux", "memcached", "mysql", "ssdb"); nil if unknown.
func Workload(name string, lvl NoiseLevel) *WorkloadModel { return workloads.Get(name, lvl) }

// WorkloadNames lists the built-in workload models.
func WorkloadNames() []string { return workloads.Names() }

// NewExploitDriver returns an exploit driver for the workload.
func NewExploitDriver(w *WorkloadModel) *ExploitDriver { return attack.NewDriver(w) }

// Source front end (internal/minic).

// CompileC compiles the small concurrent C-like language (minic) to a
// frozen IR module — the "Source Code -> clang -> LLVM" edge of the
// paper's Figure 3. Reports then point at the original source lines.
func CompileC(filename, src string) (*Module, error) { return minic.Compile(filename, src) }

// Atomicity violations (internal/atomicity) — the CTrigger-style detector
// the paper lists as integration future work (§8.3). Enable it in the
// pipeline via Options.EnableAtomicity.
type (
	// AtomicityDetector flags unserializable access triples; attach it as
	// an interpreter observer.
	AtomicityDetector = atomicity.Detector
	// AtomicityReport is one deduplicated violation.
	AtomicityReport = atomicity.Report
)

// NewAtomicityDetector returns a fresh atomicity-violation detector.
func NewAtomicityDetector() *AtomicityDetector { return atomicity.NewDetector() }

// Schedule recordings (internal/trace).
type (
	// Recording is a replayable run description (module, inputs, exact
	// schedule) serializable as JSON.
	Recording = trace.Recording
)

// RecordRun captures a finished run as a Recording.
func RecordRun(cfg MachineConfig, res *MachineResult, note string) *Recording {
	return trace.FromRun(cfg, res, note)
}

// LoadRecording reads a Recording from a file.
func LoadRecording(path string) (*Recording, error) { return trace.Load(path) }

// Input-hint concretization (internal/inputsearch) — the paper's
// symbolic-execution augmentation, implemented as budgeted guided search.
type (
	// InputSearcher concretizes a Finding's input hints into concrete
	// input vectors that reach the vulnerable site.
	InputSearcher = inputsearch.Searcher
	// InputSlot bounds one input word; InputSpace is the whole vector.
	InputSlot  = inputsearch.Slot
	InputSpace = inputsearch.Space
)

// Evaluation harness (internal/eval, internal/study).
type (
	// EvalConfig tunes the evaluation harness: the noise level, a step
	// budget override, and the Options every workload's pipeline runs
	// with (EvalConfig.Pipeline).
	EvalConfig = eval.Config
	// EvalTables bundles the regenerated paper tables.
	EvalTables = eval.Tables
	// StudyResult aggregates the §3 study findings.
	StudyResult = study.Result
	// StudyConfig tunes the §3 study run.
	StudyConfig = study.Config
)

// BuildTables regenerates the paper's Tables 1-4 from the models, one
// workload at a time (BuildTablesParallel with a single worker).
func BuildTables(cfg EvalConfig) (*EvalTables, error) { return eval.BuildTables(cfg) }

// RunStudy reproduces the §3 quantitative study.
func RunStudy(cfg StudyConfig) (*StudyResult, error) { return study.Run(cfg) }

// BuildTablesParallel is BuildTables with per-workload evaluation fanned
// out over a bounded worker pool and the §3 study overlapped with it.
func BuildTablesParallel(cfg EvalConfig, workers int) (*EvalTables, error) {
	return eval.BuildTablesParallel(cfg, workers)
}

// Pipeline instrumentation (internal/metrics).
type (
	// MetricsCollector accumulates per-stage wall/busy timings, counters,
	// and worker-utilization gauges; thread one through Options.Metrics,
	// EvalConfig.Pipeline.Metrics, or StudyConfig.Metrics.
	MetricsCollector = metrics.Collector
	// MetricsReport is a deterministic point-in-time snapshot.
	MetricsReport = metrics.Report
)

// NewMetricsCollector returns an empty metrics collector.
func NewMetricsCollector() *MetricsCollector { return metrics.New() }

// FormatTable renders rows as a fixed-width text table (first row is the
// header).
func FormatTable(rows [][]string) string { return report.Table(rows) }

// FormatFinding renders a vulnerable-input hint in the paper's Figure-5
// format.
func FormatFinding(f *Finding) string { return report.Finding(f) }

// FormatSummary renders a pipeline result overview.
func FormatSummary(name string, res *Result) string { return report.Summary(name, res) }
