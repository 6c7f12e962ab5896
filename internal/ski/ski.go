// Package ski is the kernel-side detector OWL integrates (§6.3), standing
// in for SKI's systematic schedule exploration over OS-kernel code. It
// drives the interpreter through a bounded exhaustive exploration of
// scheduling decisions (internal/sched.Explorer) and applies the paper's
// *modified* detection policy:
//
// SKI's default policy only reports the instruction pair at the racing
// moment, which is inadequate for OWL (write-write pairs have no read for
// Algorithm 1 to start from, and no corrupted-read call stacks). The
// modification: when a race is detected, the racy variable's address is
// added to a watch list, marking it corrupted; the call stacks of every
// subsequent read of a watched variable are collected; a later write
// sanitizes the variable and removes it from the list. The collected read
// stacks give Algorithm 1 its (load instruction, call stack) starting
// points — the paper obtained the stacks by walking frame pointers with
// CONFIG_FRAME_POINTER; here the interpreter provides them directly.
package ski

import (
	"fmt"
	"sort"

	"github.com/conanalysis/owl/internal/callstack"
	"github.com/conanalysis/owl/internal/interp"
	"github.com/conanalysis/owl/internal/ir"
	"github.com/conanalysis/owl/internal/race"
	"github.com/conanalysis/owl/internal/sched"
)

// WatchedRead is one read of a corrupted (watched) variable, with the
// call-stack context Algorithm 1 consumes.
type WatchedRead struct {
	Instr *ir.Instr
	Stack callstack.Stack
	Val   int64
}

// Report is a kernel race report: the underlying race plus all watched
// reads collected before a sanitizing write.
type Report struct {
	Race  *race.Report
	Reads []WatchedRead
}

// BestRead returns the deepest-stack watched read whose instruction is a
// plain load (Algorithm 1's required input shape); when no watched read
// exists it falls back to the race's own read side.
func (r *Report) BestRead() (*ir.Instr, callstack.Stack, bool) {
	var best *WatchedRead
	for i := range r.Reads {
		wr := &r.Reads[i]
		if wr.Instr == nil || wr.Instr.Op != ir.OpLoad {
			continue
		}
		if best == nil || len(wr.Stack) > len(best.Stack) {
			best = wr
		}
	}
	if best != nil {
		return best.Instr, best.Stack, true
	}
	if acc, ok := r.Race.ReadSide(); ok && acc.Instr != nil {
		return acc.Instr, acc.Stack, true
	}
	return nil, nil, false
}

func (r *Report) String() string {
	return fmt.Sprintf("kernel race %s with %d watched reads", r.Race.ID(), len(r.Reads))
}

// watcher implements the §6.3 watch-list policy as an interpreter
// observer layered over a race detector.
type watcher struct {
	det     *race.Detector
	seen    int // reports consumed from det so far
	watched map[int64]*Report
	done    []*Report
}

func newWatcher(det *race.Detector) *watcher {
	return &watcher{det: det, watched: make(map[int64]*Report)}
}

// NeedsStack implements interp.StackPolicy: the wrapped race detector
// needs access stacks, and the watch policy itself collects a stack per
// watched read.
func (w *watcher) NeedsStack(k interp.EventKind) bool {
	return k == interp.EvRead || k == interp.EvWrite
}

// OnEvent feeds the race detector first, then applies the watch policy.
func (w *watcher) OnEvent(m *interp.Machine, e *interp.Event) {
	w.det.OnEvent(m, e)
	// Newly detected races put their address on the watch list.
	reports := w.det.Reports()
	for ; w.seen < len(reports); w.seen++ {
		rep := reports[w.seen]
		addr := rep.Cur.Addr
		if _, ok := w.watched[addr]; !ok {
			w.watched[addr] = &Report{Race: rep}
		}
	}
	switch e.Kind {
	case interp.EvRead:
		if r, ok := w.watched[e.Addr]; ok {
			r.Reads = append(r.Reads, WatchedRead{Instr: e.Instr, Stack: m.EventStack(e), Val: e.Val})
		}
	case interp.EvWrite:
		if r, ok := w.watched[e.Addr]; ok {
			// A write sanitizes the corrupted value (§6.3) — unless the
			// write is one side of the watched race occurring again, in
			// which case the variable stays corrupted.
			if e.Instr != r.Race.Cur.Instr && e.Instr != r.Race.Prev.Instr {
				w.done = append(w.done, r)
				delete(w.watched, e.Addr)
			}
		}
	}
}

// reports returns all watch records (finished and still-watched), ordered
// deterministically.
func (w *watcher) reports() []*Report {
	out := append([]*Report(nil), w.done...)
	addrs := make([]int64, 0, len(w.watched))
	for a := range w.watched {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		out = append(out, w.watched[a])
	}
	return out
}

// Detector explores schedules and reports races with watched-read stacks.
type Detector struct {
	// MaxRuns / MaxDecisions bound the exploration (see sched.Explorer).
	MaxRuns      int
	MaxDecisions int
	// Benign, when non-nil, suppresses annotated races. OWL's §5.1
	// stage filters the raw reports instead; only its reference re-run
	// (the eval package's tests) sets this.
	Benign *race.Annotations
}

// New returns a detector with moderate exploration bounds.
func New() *Detector { return &Detector{MaxRuns: 128, MaxDecisions: 10} }

// Detect explores schedules of the configured program and returns merged,
// deduplicated kernel reports plus the number of runs used. cfg's Sched
// and Observers fields are overridden per run.
func (d *Detector) Detect(cfg interp.Config) ([]*Report, int, error) {
	merged := map[string]*Report{}
	var order []string

	ex := &sched.Explorer{MaxRuns: d.MaxRuns, MaxDecisions: d.MaxDecisions}
	res, err := ex.Explore(func(s interp.Scheduler) error {
		det := race.NewDetector()
		det.Benign = d.Benign
		w := newWatcher(det)
		runCfg := cfg
		runCfg.Sched = s
		runCfg.Observers = []interp.Observer{w}
		// Reports are all a run yields; nothing reads its schedule.
		runCfg.NoSchedule = true
		m, err := interp.New(runCfg)
		if err != nil {
			return err
		}
		m.Run()
		for _, r := range w.reports() {
			id := r.Race.ID()
			if existing, ok := merged[id]; ok {
				existing.Reads = append(existing.Reads, r.Reads...)
				continue
			}
			merged[id] = r
			order = append(order, id)
		}
		return nil
	})
	if err != nil {
		return nil, res.Runs, fmt.Errorf("ski explore: %w", err)
	}
	out := make([]*Report, 0, len(order))
	for _, id := range order {
		out = append(out, merged[id])
	}
	return out, res.Runs, nil
}
