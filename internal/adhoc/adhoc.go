// Package adhoc implements OWL's static ad-hoc synchronization detector
// (§5.1). Developers write semaphore-like synchronizations where one
// thread busy-waits on a shared variable until another thread sets it;
// TSAN/SKI cannot recognize these and flood the developer with benign
// reports. OWL mines them directly from race reports:
//
//  1. the report's read instruction sits inside a loop,
//  2. a forward intra-procedural data/control dependency from that read
//     reaches a branch that can break out of the loop, and
//  3. the report's write side stores a constant.
//
// Matching reports are tagged "adhoc sync", and each sync's racing pair
// is annotated (race.Annotations) — the paper's automatic TSAN-markup
// step. The paper then re-runs the detector; here an annotation only
// suppresses a pair's report, so the pipeline drops the annotated pairs
// from the reports it already has (Annotations.Suppresses), which is
// what the re-run would return. Unlike SyncFinder's purely static matching,
// the inputs here are real runtime reports, which is what makes the check
// simple and precise (paper §5.1, last paragraph).
package adhoc

import (
	"fmt"
	"sort"
	"strings"

	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/race"
)

// Sync is one identified ad-hoc synchronization.
type Sync struct {
	// Var is the sync variable's memory name (e.g. "@thread_quit").
	Var string
	// Read is the busy-wait load; Write the flag store; ExitBr the
	// loop-exit branch the read feeds.
	Read, Write, ExitBr *ir.Instr
	// Report is the race report the sync was mined from.
	Report *race.Report
}

func (s *Sync) String() string {
	return fmt.Sprintf("adhoc sync on %s: wait-read %s, flag-write %s, exit %s",
		s.Var, s.Read.Loc(), s.Write.Loc(), s.ExitBr.Loc())
}

// Detector mines ad-hoc synchronizations from race reports.
type Detector struct {
	cfgs map[*ir.Func]*ir.CFG
}

// NewDetector returns a detector.
func NewDetector() *Detector {
	return &Detector{cfgs: make(map[*ir.Func]*ir.CFG)}
}

func (d *Detector) cfg(f *ir.Func) *ir.CFG {
	c := d.cfgs[f]
	if c == nil {
		c = ir.BuildCFG(f)
		d.cfgs[f] = c
	}
	return c
}

// Analyze inspects the reports and returns the ad-hoc synchronizations
// found, one per distinct racing-instruction pair (a sync variable with
// several waiters yields one Sync per waiter, all sharing Var — the way
// annotating the variable's accesses in source suppresses every pair).
// UniqueVars counts the distinct variables, the number the paper reports.
func (d *Detector) Analyze(reports []*race.Report) []*Sync {
	var out []*Sync
	seen := map[[2]*ir.Instr]bool{}
	for _, r := range reports {
		s := d.analyzeOne(r)
		if s == nil || seen[[2]*ir.Instr{s.Read, s.Write}] {
			continue
		}
		seen[[2]*ir.Instr{s.Read, s.Write}] = true
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Var != out[j].Var {
			return out[i].Var < out[j].Var
		}
		return out[i].Read.Index < out[j].Read.Index
	})
	return out
}

// UniqueVars counts the distinct sync variables among the syncs.
func UniqueVars(syncs []*Sync) int {
	vars := map[string]bool{}
	for _, s := range syncs {
		vars[s.Var] = true
	}
	return len(vars)
}

func (d *Detector) analyzeOne(r *race.Report) *Sync {
	rd, ok := r.ReadSide()
	if !ok || rd.Instr == nil || rd.Instr.Op != ir.OpLoad {
		return nil
	}
	wr := r.WriteSide()
	if wr.Instr == nil || wr.Instr.Op != ir.OpStore {
		return nil
	}
	// Step 3 (cheap, check first): the write stores a constant.
	if wr.Instr.Args[0].Kind != ir.OperandConst {
		return nil
	}
	read := rd.Instr
	fn := read.Fn
	if fn == nil {
		return nil
	}
	cfg := d.cfg(fn)

	// Step 1: the read is inside a loop — and the loop must be a pure
	// busy-wait ("one thread is busy waiting on a shared variable"). A
	// loop that performs real work (stores, calls beyond timing
	// intrinsics) is not an ad-hoc synchronization even if a flag read
	// controls its exit: the SSDB binlog cleaner (Figure 6) and the
	// Chrome profiler loop are exactly such cases, and annotating them
	// would hide their vulnerable races — consistent with the paper
	// annotating zero ad-hoc syncs for SSDB (Table 3).
	loops := spinLoops(fn, cfg.LoopsContaining(read.Block.Name))
	if len(loops) == 0 {
		return nil
	}

	// Step 2: forward intra-procedural data/control dependency from the
	// read reaches a branch that exits one of those loops.
	corrupt := map[string]bool{}
	if read.Dst != "" {
		corrupt[read.Dst] = true
	}
	for _, in := range fn.Instrs() {
		if in.Index <= read.Index {
			continue
		}
		dep := false
		for _, u := range in.Uses() {
			if u.Kind == ir.OperandReg && corrupt[u.Name] {
				dep = true
				break
			}
		}
		if !dep {
			continue
		}
		if in.Op == ir.OpBr {
			for _, l := range loops {
				for _, exit := range l.ExitBranches(fn) {
					if exit == in {
						return &Sync{
							Var:    varName(r),
							Read:   read,
							Write:  wr.Instr,
							ExitBr: in,
							Report: r,
						}
					}
				}
			}
		}
		if in.Dst != "" {
			corrupt[in.Dst] = true
		}
	}
	return nil
}

// spinLoops filters loops down to pure busy-wait loops: no stores and no
// calls other than the timing/yield intrinsics inside the loop body.
func spinLoops(fn *ir.Func, loops []*ir.Loop) []*ir.Loop {
	var out []*ir.Loop
	for _, l := range loops {
		if isSpinLoop(fn, l) {
			out = append(out, l)
		}
	}
	return out
}

func isSpinLoop(fn *ir.Func, l *ir.Loop) bool {
	for name := range l.Blocks {
		for _, in := range fn.Block(name).Instrs {
			switch in.Op {
			case ir.OpStore:
				return false
			case ir.OpCall:
				c := in.Callee()
				if c.Kind != ir.OperandFunc {
					return false
				}
				switch c.Name {
				case "yield", "sleep", "io_delay":
					// Waiting politely is still waiting.
				default:
					return false
				}
			}
		}
	}
	return true
}

// varName returns the base memory name of the report's racing variable
// (stripping any "+offset").
func varName(r *race.Report) string {
	n := r.AddrName
	if i := strings.IndexByte(n, '+'); i >= 0 {
		n = n[:i]
	}
	return n
}

// Annotate installs the syncs into an annotation set (creating one when
// ann is nil) and returns it; the pipeline filters the raw reports with
// its Suppresses (a race detector's Benign field takes it too, for a
// re-run). Annotation is per racing-instruction
// pair (like TSAN markups on the sync accesses), NOT per variable:
// another racy access to the same memory — the SSDB db pointer read
// inside del_range, say — must keep being reported.
func Annotate(syncs []*Sync, ann *race.Annotations) *race.Annotations {
	if ann == nil {
		ann = race.NewAnnotations()
	}
	for _, s := range syncs {
		ann.AddPair(s.Read, s.Write)
	}
	return ann
}
