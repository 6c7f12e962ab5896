package persist

import (
	"bytes"
	"reflect"
	"testing"
)

// The fuzz targets run their seed corpora (testdata/fuzz/<target>/ plus
// the f.Add seeds) on every `go test`; `make fuzz` mutates them.

// FuzzDecodeCheckpoint fuzzes the one decoder that guards both a
// CHECKPOINT file at boot and a peer's blob on the wire. Whatever it
// accepts must re-encode to a blob it accepts again, and the
// re-encoding must be a fixed point.
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, ck := range []Checkpoint{testCheckpoint(0, 1), formatCheckpoint(Version)} {
		blob, err := EncodeCheckpoint(ck)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		blob, err := EncodeCheckpoint(ck)
		if err != nil {
			t.Fatalf("re-encode of an accepted checkpoint: %v", err)
		}
		again, err := DecodeCheckpoint(blob)
		if err != nil {
			t.Fatalf("decode of a re-encoded checkpoint: %v", err)
		}
		blob2, err := EncodeCheckpoint(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatalf("encode is not a fixed point:\n%q\n%q", blob, blob2)
		}
	})
}

// FuzzRecoverWAL fuzzes the WAL scan boot recovery runs (scanWAL, the
// only WAL reader). The valid prefix it keeps must end inside the file
// and be empty or start past the header, and scanning the kept prefix
// again must return the same records — recovery truncates the file to
// that prefix, so the next boot must read back what this one replayed.
func FuzzRecoverWAL(f *testing.F) {
	f.Add([]byte(nil), uint64(0))
	f.Add([]byte(walMagic), uint64(0))
	f.Fuzz(func(t *testing.T, wal []byte, afterSeq uint64) {
		deltas, goodOff, maxSeq := scanWAL(wal, afterSeq)
		if goodOff > len(wal) || (goodOff != 0 && goodOff < magicLen) {
			t.Fatalf("valid prefix ends at %d in a %d-byte file", goodOff, len(wal))
		}
		again, againOff, againMax := scanWAL(wal[:goodOff], afterSeq)
		if againOff != goodOff || againMax != maxSeq || !reflect.DeepEqual(again, deltas) {
			t.Fatalf("rescanning the %d-byte kept prefix differs: off %d, max seq %d vs %d, records\n%+v\n%+v",
				goodOff, againOff, againMax, maxSeq, again, deltas)
		}
	})
}
