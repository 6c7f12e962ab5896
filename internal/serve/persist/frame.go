// Frame encoding and fault-aware disk I/O for the persistence layer.
//
// Both blob kinds share one on-disk grammar: an 8-byte magic string
// followed by frames, where a frame is a little-endian u32 payload
// length, a u32 CRC-32C of the payload, and the payload bytes. A
// checkpoint file is magic + exactly one frame; a WAL is magic + zero
// or more frames. The CRC plus the length prefix make every class of
// tail damage detectable: a torn write truncates mid-frame (length
// overruns the file), a bit flip fails the checksum, and garbage after
// a crash fails one or the other. Readers treat the first invalid frame
// as the end of the durable prefix — nothing after it is trusted.
//
// All writes and fsyncs funnel through the Store's fault-aware helpers,
// which consult an optional faultinject.Plan keyed by operation name
// and per-(program, operation) sequence number, so crash-consistency
// tests can deterministically tear, flip, and short-write exactly the
// byte ranges they mean to.
package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"github.com/conanalysis/owl/internal/faultinject"
)

const (
	ckptMagic = "OWLCKPT1"
	walMagic  = "OWLWAL01"
	magicLen  = 8
	// frameMax bounds a frame payload (a state blob for one program);
	// a length word above it is corruption, not a real frame.
	frameMax = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encBufs pools the encode buffers behind every WAL append and
// checkpoint write. The append path runs once per completed job on a
// long-lived server; without pooling each record allocates a marshal
// buffer plus a frame buffer of checkpoint-scale size and the steady
// state churns the GC for no reason.
var encBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getEncBuf() *bytes.Buffer {
	buf := encBufs.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

func putEncBuf(buf *bytes.Buffer) {
	// Oversized one-off blobs (a giant checkpoint) would pin their
	// capacity in the pool forever; let those go.
	if buf.Cap() <= 4<<20 {
		encBufs.Put(buf)
	}
}

// marshalFramed JSON-encodes v directly into a pooled buffer laid out
// as one complete frame (len|crc|payload) with no intermediate copies.
// The caller must hand the buffer back via putEncBuf when the bytes
// have been written out.
func marshalFramed(v any) (*bytes.Buffer, error) {
	buf := getEncBuf()
	buf.Write(make([]byte, 8)) // frame header, filled in below
	enc := json.NewEncoder(buf)
	if err := enc.Encode(v); err != nil {
		putEncBuf(buf)
		return nil, err
	}
	buf.Truncate(buf.Len() - 1) // drop Encoder's trailing newline
	b := buf.Bytes()
	payload := b[8:]
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(payload, castagnoli))
	return buf, nil
}

// readFrame decodes the frame at data[off:]. ok is false when the bytes
// at off do not form a complete, checksummed frame — the durable prefix
// ends at off.
func readFrame(data []byte, off int) (payload []byte, next int, ok bool) {
	if off+8 > len(data) {
		return nil, off, false
	}
	n := binary.LittleEndian.Uint32(data[off : off+4])
	if n > frameMax || off+8+int(n) > len(data) {
		return nil, off, false
	}
	payload = data[off+8 : off+8+int(n)]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[off+4:off+8]) {
		return nil, off, false
	}
	return payload, off + 8 + int(n), true
}

// opSeq returns the next sequence number for (key, op) — the run index
// disk-fault rules match on.
func (s *Store) opSeq(key, op string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seq == nil {
		s.seq = make(map[string]int)
	}
	k := key + "|" + op
	n := s.seq[k]
	s.seq[k] = n + 1
	return n
}

// write appends b to f through the fault plan. A short-write fault
// writes half the buffer and reports the error (the caller truncates
// back); a torn-write fault writes half and reports success (the
// page-cache tail a crash loses); a bit-flip fault corrupts one bit and
// writes it all (the damage only a checksum catches).
func (s *Store) write(f *os.File, key, op string, b []byte) error {
	switch fault := s.opts.Faults.Disk(op, s.opSeq(key, op)); {
	case fault == nil:
		_, err := f.Write(b)
		return err
	case fault.Kind == faultinject.KindShortWrite:
		f.Write(b[:len(b)/2])
		return fault
	case fault.Kind == faultinject.KindTornWrite:
		_, err := f.Write(b[:len(b)/2])
		return err
	case fault.Kind == faultinject.KindBitFlip:
		flipped := make([]byte, len(b))
		copy(flipped, b)
		if len(flipped) > 0 {
			bit := fault.Bit % (len(flipped) * 8)
			if bit < 0 {
				bit += len(flipped) * 8
			}
			flipped[bit/8] ^= 1 << (bit % 8)
		}
		_, err := f.Write(flipped)
		return err
	default: // an fsync-error rule mistargeted at a write point: inert
		_, err := f.Write(b)
		return err
	}
}

// fsync flushes f through the fault plan.
func (s *Store) fsync(f *os.File, key, op string) error {
	if fault := s.opts.Faults.Disk(op, s.opSeq(key, op)); fault != nil && fault.Kind == faultinject.KindFsyncError {
		return fault
	}
	return f.Sync()
}

// syncDir fsyncs a directory so a just-renamed file's directory entry
// is durable.
func (s *Store) syncDir(key, dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return s.fsync(d, key, "persist.dir.fsync")
}

// writeFileAtomic writes magic+content to path via a same-directory
// temp file, fsync, rename, dir fsync — the atomic-replace idiom. op
// prefixes the fault-injection point names ("<op>.write"/"<op>.fsync").
func (s *Store) writeFileAtomic(key, op, path string, magic string, content []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	buf := getEncBuf()
	defer putEncBuf(buf)
	buf.WriteString(magic)
	buf.Write(content)
	if err := s.write(f, key, op+".write", buf.Bytes()); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := s.fsync(f, key, op+".fsync"); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return s.syncDir(key, filepath.Dir(path))
}
