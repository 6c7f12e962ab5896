// Offline validation and repair of a state directory. Fsck IS boot
// recovery — a program is only as good as its checksummed checkpoint
// plus the valid prefix of its WAL — run without a server and reported
// instead of rehydrated: corrupt checkpoints are quarantined, torn WAL
// tails truncated, leftover temp files removed. Running fsck before a
// server start is never required (boot recovery does all of this
// anyway) but gives an operator an accounting of what a crash cost.
package persist

import (
	"fmt"
	"io"
	"os"
)

// FsckProgram is one program's verdict.
type FsckProgram struct {
	Key string `json:"key"`
	// OK means the checkpoint validated; a quarantined program is not OK.
	OK bool `json:"ok"`
	// Err describes why a program was quarantined.
	Err string `json:"err,omitempty"`
	// Records is the count of valid WAL records beyond the checkpoint —
	// what recovery replayed.
	Records int `json:"records"`
	// TruncatedBytes is how much torn/corrupt WAL tail was cut off (the
	// whole file when even its header was unreadable).
	TruncatedBytes int64 `json:"truncated_bytes,omitempty"`
	// Submissions/Pairs/Seen summarize the durable state for reporting;
	// Seen counts the stored reports.
	Submissions int `json:"submissions"`
	Pairs       int `json:"pairs"`
	Seen        int `json:"seen"`
}

// FsckReport is the full accounting of one fsck pass.
type FsckReport struct {
	Dir         string        `json:"dir"`
	Programs    []FsckProgram `json:"programs"`
	OK          int           `json:"ok"`
	Quarantined int           `json:"quarantined"`
	RemovedTemp int           `json:"removed_temp"`
}

// Fsck validates and repairs a state directory in place by running boot
// recovery over it, and reports what that recovery did. It returns an
// error only when the directory itself is unusable.
func Fsck(dir string) (*FsckReport, error) {
	rep := &FsckReport{Dir: dir}
	s := &Store{dir: dir} // no faults, no metrics
	err := s.recoverAll(func(key string, rec *Recovered, rp repair, err error) {
		rep.RemovedTemp += rp.removedTemp
		fp := FsckProgram{Key: key}
		if err != nil {
			fp.Err = err.Error()
			rep.Quarantined++
			rep.Programs = append(rep.Programs, fp)
			return
		}
		rec.Log.Close()
		ck := rec.Checkpoint
		fp.OK, fp.Records, fp.TruncatedBytes = true, len(rec.Deltas), rp.truncated
		fp.Submissions, fp.Pairs, fp.Seen = ck.Submissions, len(ck.State.Pairs), len(ck.State.Reports)
		for _, d := range rec.Deltas {
			fp.Submissions = max(fp.Submissions, d.SubmissionsAfter)
		}
		rep.OK++
		rep.Programs = append(rep.Programs, fp)
	})
	if os.IsNotExist(err) {
		return rep, nil // nothing persisted yet: trivially clean
	}
	if err != nil {
		return nil, fmt.Errorf("fsck: %w", err)
	}
	return rep, nil
}

// Write renders the report for terminal consumption.
func (r *FsckReport) Write(w io.Writer) {
	fmt.Fprintf(w, "fsck %s: %d program(s), %d ok, %d quarantined, %d temp file(s) removed\n",
		r.Dir, len(r.Programs), r.OK, r.Quarantined, r.RemovedTemp)
	for _, p := range r.Programs {
		switch {
		case !p.OK:
			fmt.Fprintf(w, "  %s QUARANTINED: %s\n", short(p.Key), p.Err)
		case p.TruncatedBytes > 0:
			fmt.Fprintf(w, "  %s ok: %d submission(s), %d pair(s), %d wal record(s); truncated %dB torn tail\n",
				short(p.Key), p.Submissions, p.Pairs, p.Records, p.TruncatedBytes)
		default:
			fmt.Fprintf(w, "  %s ok: %d submission(s), %d pair(s), %d wal record(s)\n",
				short(p.Key), p.Submissions, p.Pairs, p.Records)
		}
	}
}

func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
