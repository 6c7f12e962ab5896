// Durability glue between the serve store and internal/serve/persist.
// The persist package stores checksummed bytes; this file decides what
// those bytes mean: how a programState folds down into a checkpoint,
// how each finished job becomes one WAL delta, and how a recovered blob
// is re-bound against a freshly resolved module at boot.
//
// The cardinal rule is refuse-to-guess: a persisted state rehydrates
// only if the re-resolved program has the same content key AND the same
// module fingerprint, and every stable coverage position resolves. Any
// mismatch discards that program's durable state (quarantined, counted
// in serve.persist_discarded) and the server keeps serving it from
// scratch — a lost resume is a performance bug, silently-wrong coverage
// would be a correctness bug.
package serve

import (
	"fmt"

	"github.com/conanalysis/owl/internal/owl"
	"github.com/conanalysis/owl/internal/serve/persist"
)

// sourceOf extracts the program-identity fields of a spec — exactly the
// ones resolve() hashes into the store key, nothing else (options are
// not identity).
func sourceOf(spec Spec) persist.ProgramSource {
	return persist.ProgramSource{
		Workload: spec.Workload,
		Recipe:   spec.Recipe,
		Noise:    spec.Noise,
		Program:  spec.Program,
		Inputs:   spec.Inputs,
	}
}

// specFromSource is the boot-time inverse: a checkpoint's preserved
// identity as a resolvable spec.
func specFromSource(src persist.ProgramSource) Spec {
	return Spec{
		Workload: src.Workload,
		Recipe:   src.Recipe,
		Noise:    src.Noise,
		Program:  src.Program,
		Inputs:   src.Inputs,
	}
}

// resolveCheckpoint is the identity check every recovered or offered
// checkpoint passes before it may touch the store: its preserved source
// must re-resolve to its key, and the resolved module must have its
// fingerprint.
func resolveCheckpoint(ck *persist.Checkpoint) (owl.Program, string, error) {
	prog, name, key, err := resolve(specFromSource(ck.Source))
	switch {
	case err != nil:
		return prog, name, fmt.Errorf("source does not resolve: %w", err)
	case key != ck.Key:
		return prog, name, fmt.Errorf("source re-resolves to key %.12s, not %.12s", key, ck.Key)
	case prog.Module.Fingerprint() != ck.ModuleFP:
		return prog, name, fmt.Errorf("module fingerprint %.12s does not match %.12s", prog.Module.Fingerprint(), ck.ModuleFP)
	}
	return prog, name, nil
}

// rehydrateAll loads every program Open recovered into the store —
// the boot half of crash recovery. Per-program failures discard that
// program (quarantine + serve.persist_discarded) and never fail boot.
func (s *Server) rehydrateAll(recovered []*persist.Recovered) {
	for _, rec := range recovered {
		prog, name, err := resolveCheckpoint(&rec.Checkpoint)
		if ps := s.store.rehydrate(rec, name, prog, err); ps != nil {
			s.store.insert(ps)
			s.mc.Count("serve.store_programs", 1)
		}
	}
}

// composeCheckpoint snapshots a program's full durable state. The
// caller holds ps.pmu, so no job is between absorb and append and the
// snapshot is one consistent version. For a memory-only program (no
// log) the sequence number falls back to the exploration count — still
// monotonic with the program's progress, which is all the replica
// exchange's staleness check needs.
func composeCheckpoint(ps *programState) persist.Checkpoint {
	ps.mu.Lock()
	reports := append([]string(nil), ps.order...)
	subs := ps.submissions
	ps.mu.Unlock()
	seq := uint64(ps.state.Explorations())
	if ps.log != nil {
		seq = ps.log.LastSeq()
	}
	return persist.Checkpoint{
		Key:         ps.key,
		Name:        ps.name,
		Source:      ps.source,
		ModuleFP:    ps.fp,
		Seq:         seq,
		Submissions: subs,
		Reports:     reports,
		State:       ps.state.Export(),
	}
}

// persistJob makes one finished job durable: drain the state journal,
// append one WAL record, and fold the log into a fresh checkpoint every
// CheckpointEvery records. A failed append falls back to attempting a
// full checkpoint (regaining durability through the other path); if
// both fail the loss is counted and the server keeps serving from
// memory.
func (s *Server) persistJob(ps *programState, freshIDs []string, submissions int) {
	if ps.log == nil {
		return
	}
	ps.pmu.Lock()
	defer ps.pmu.Unlock()
	delta := persist.Delta{
		SubmissionsAfter: submissions,
		Reports:          freshIDs,
		State:            ps.state.TakeDelta(),
	}
	if err := ps.log.Append(delta); err != nil {
		s.mc.Count("serve.persist_errors", 1)
		if cerr := s.checkpointLocked(ps); cerr != nil {
			s.mc.Count("serve.persist_errors", 1)
		}
		return
	}
	if ps.log.Records() >= s.cfg.CheckpointEvery {
		if err := s.checkpointLocked(ps); err != nil {
			s.mc.Count("serve.persist_errors", 1)
		} else {
			// Anti-entropy rides the fold cadence: the state just became
			// one durable version, push that same version to the fleet.
			s.offerState(ps)
		}
	}
}

// checkpointLocked writes a fresh checkpoint for ps. Caller holds
// ps.pmu.
func (s *Server) checkpointLocked(ps *programState) error {
	return ps.log.Checkpoint(composeCheckpoint(ps))
}

// checkpointProgram is the externally-safe form: it serializes against
// the per-job persistence path via pmu.
func (s *Server) checkpointProgram(ps *programState) error {
	if ps.log == nil {
		return nil
	}
	ps.pmu.Lock()
	defer ps.pmu.Unlock()
	return s.checkpointLocked(ps)
}

// persistAll checkpoints every program that has a log — the drain-time
// flush — and closes the logs when shutting down for good.
func (s *Server) persistAll(closeLogs bool) {
	for _, ps := range s.store.all() {
		if ps.log == nil {
			continue
		}
		if err := s.checkpointProgram(ps); err != nil {
			s.mc.Count("serve.persist_errors", 1)
		}
		if closeLogs {
			ps.log.Close()
		}
	}
}

// Fsck validates and repairs a state directory offline; it is the
// library behind cmd/owl-serve -fsck.
func Fsck(stateDir string) (*persist.FsckReport, error) {
	return persist.Fsck(stateDir)
}
