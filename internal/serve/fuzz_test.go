package serve

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"github.com/conanalysis/owl/internal/serve/persist"
)

// sealCheckpoint recomputes the frame header (payload length and
// CRC-32C) of a checkpoint blob, so a mutated payload reaches the JSON
// decoder and the state fold instead of dying at the checksum. Frame
// damage itself is persist.FuzzDecodeCheckpoint's to explore.
func sealCheckpoint(data []byte) []byte {
	const header = 16 // magic, length, checksum
	if len(data) < header {
		return data
	}
	out := bytes.Clone(data)
	payload := out[header:]
	binary.LittleEndian.PutUint32(out[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[12:16], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return out
}

// FuzzStateOffer fuzzes what a PUT /v1/programs/{key}/state offer runs
// once its body is read: the checkpoint decoder, then the state fold —
// newProgramState for a program this replica does not hold and
// mergeSnapshot for a live one. The seeds (testdata/fuzz/FuzzStateOffer)
// are libsafe checkpoints: version 1, version 2 with stored reports,
// and version 2 with stored reports whose positions do not resolve. The
// harness re-seals each input's frame and stamps the module fingerprint,
// the offer path's cheap identity checks, so mutations exercise the
// state. An accepted offer must fold without panic, and the state it
// builds must re-export to a blob that decodes and folds to a state
// exporting the same bytes.
func FuzzStateOffer(f *testing.F) {
	prog, name, _, err := resolve(Spec{Workload: "libsafe"})
	if err != nil {
		f.Fatal(err)
	}
	fp := prog.Module.Fingerprint()
	build := func(ck persist.Checkpoint) (*programState, error) {
		ck.ModuleFP = fp
		return newProgramState(&ck, nil, name, prog)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := persist.DecodeCheckpoint(sealCheckpoint(data))
		if err != nil {
			return
		}
		// The live-program path, into an empty state: refusal is fine, a
		// panic is not.
		if live, err := build(persist.Checkpoint{Key: ck.Key}); err == nil {
			live.mergeSnapshot(&ck)
		}
		ps, err := build(ck)
		if err != nil {
			return
		}
		if changed, err := ps.mergeSnapshot(&ck); err != nil || changed {
			t.Fatalf("re-offering an accepted blob: changed=%v, err=%v; want a stale no-op", changed, err)
		}
		blob, err := persist.EncodeCheckpoint(composeCheckpoint(ps))
		if err != nil {
			t.Fatalf("encode of an accepted offer's state: %v", err)
		}
		again, err := persist.DecodeCheckpoint(blob)
		if err != nil {
			t.Fatalf("decode of a re-exported state: %v", err)
		}
		ps2, err := build(again)
		if err != nil {
			t.Fatalf("fold of a re-exported state: %v", err)
		}
		blob2, err := persist.EncodeCheckpoint(composeCheckpoint(ps2))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatalf("re-exported state does not round-trip:\n%q\n%q", blob, blob2)
		}
	})
}
