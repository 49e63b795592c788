package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/wirebin"
)

// The WAL is a sequence of segment files named wal-<firstLSN>.log. Every
// segment starts with an 8-byte magic plus the little-endian LSN of its
// first record; records follow back to back, each framed as
//
//	u32le payload length | u32le CRC-32C | payload
//
// so a reader can detect a torn tail (short frame or checksum mismatch)
// and truncate to the last intact record. LSNs are implicit: the segment
// header carries the first, and nothing in the hot append path writes
// per-record sequence numbers. Every record takes one LSN, except an
// ingest batch, which takes one per entry: a batch logged at LSN first
// covers first…first+n−1, so replay positions stay per report.
//
// An ingest batch's payload is one wirebin frame — the wire's own codec,
// with front-coded user ids and bit-exact values — recognised by the
// frame magic's first byte. The frame's CRC-32C trailer already covers
// the rest of it, so the frame header repeats that trailer instead of
// checksumming the batch a second time. Every other payload is
// type-tagged, length-prefixed binary (uvarint lengths, float64 bit
// patterns for values) under a CRC-32C of the whole payload, versioned by
// the segment magic — the same self-describing conventions the snapshot
// format uses.

// walMagic identifies (and versions) a WAL segment file.
const walMagic = "DAPWAL01"

// walHeaderSize is the segment header length: magic + first LSN.
const walHeaderSize = len(walMagic) + 8

// frameHeaderSize is the per-record frame header: length + CRC.
const frameHeaderSize = 8

// castagnoli is the CRC-32C table used for record and snapshot checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// RecordType tags a WAL record.
type RecordType uint8

// WAL record types.
const (
	// RecIngest is one accepted report (tenant, user, group, values),
	// the form logs took before RecIngestBatch. Nothing writes it any
	// more; it is still decoded, so older logs load, and replays as a
	// one-entry batch.
	RecIngest RecordType = iota + 1
	// RecRotate seals a tenant's live epoch; Seq is the epoch counter
	// after the seal.
	RecRotate
	// RecJoin records a user-group assignment handed out by Join.
	RecJoin
	// RecTenantCreate records a tenant registration; Spec carries the
	// tenant's task-spec JSON (with Serve section), enough to recreate it.
	RecTenantCreate
	// RecTenantDelete records a tenant deletion.
	RecTenantDelete
	// RecMergeDelta is one node's sealed-epoch delta accepted by a
	// coordinator: User carries the node id, Seq the epoch index and
	// Spec the raw CRC-sealed delta frame bytes (wirebin.EncodeDelta),
	// so replay re-verifies and re-merges the exact frame.
	RecMergeDelta

	// RecIngestBatch is one accepted ingest batch: Frame holds it as a
	// wirebin frame (tenant, front-coded ids, values) and it covers one
	// LSN per entry. Its tag is the frame magic's first byte, because the
	// payload is the bare frame.
	RecIngestBatch RecordType = 'D'
)

// String implements fmt.Stringer.
func (t RecordType) String() string {
	switch t {
	case RecIngest:
		return "ingest"
	case RecRotate:
		return "rotate"
	case RecJoin:
		return "join"
	case RecTenantCreate:
		return "tenant-create"
	case RecTenantDelete:
		return "tenant-delete"
	case RecMergeDelta:
		return "merge-delta"
	case RecIngestBatch:
		return "ingest-batch"
	}
	return fmt.Sprintf("record(%d)", uint8(t))
}

// Record is one WAL entry. Which fields are meaningful depends on Type;
// LSN is assigned by the log (append order, monotone, gaps only where a
// torn tail was truncated).
type Record struct {
	// LSN is the record's log sequence number — for RecIngestBatch the
	// first of its Count.
	LSN uint64
	// Type selects the fields below.
	Type RecordType
	// Tenant names the owning tenant (all types).
	Tenant string
	// User is the reporting or joining user (RecIngest, RecJoin) or the
	// reporting node id (RecMergeDelta).
	User string
	// Group is the user's group index (RecIngest, RecJoin).
	Group int
	// Values are the accepted report values (RecIngest).
	Values []float64
	// Seq is the sealed-epoch counter (RecRotate, RecMergeDelta).
	Seq uint64
	// Spec is the tenant's task-spec JSON (RecTenantCreate) or the raw
	// delta frame bytes (RecMergeDelta).
	Spec []byte
	// Frame is the batch as one wirebin frame (RecIngestBatch). Records
	// that Load returns alias the segment bytes it read; replay decodes
	// the frame.
	Frame []byte
	// Count is the batch's entry count (RecIngestBatch): the record
	// covers LSN…LSN+Count−1.
	Count int
}

// Span is how many LSNs r covers: Count for a batch, 1 otherwise.
func (r *Record) Span() uint64 {
	if r.Type == RecIngestBatch {
		return uint64(r.Count)
	}
	return 1
}

// appendUstring appends a uvarint-length-prefixed string.
func appendUstring(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendUbytes appends a uvarint-length-prefixed byte slice.
func appendUbytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// encodeRecord appends r's payload (no frame) to b. RecIngest has no
// encoder: ingest batches are logged as RecIngestBatch frames.
func encodeRecord(b []byte, r *Record) []byte {
	if r.Type == RecIngestBatch {
		return append(b, r.Frame...)
	}
	b = append(b, byte(r.Type))
	b = appendUstring(b, r.Tenant)
	switch r.Type {
	case RecRotate:
		b = binary.AppendUvarint(b, r.Seq)
	case RecJoin:
		b = appendUstring(b, r.User)
		b = binary.AppendUvarint(b, uint64(r.Group))
	case RecTenantCreate:
		b = appendUbytes(b, r.Spec)
	case RecTenantDelete:
	case RecMergeDelta:
		b = appendUstring(b, r.User)
		b = binary.AppendUvarint(b, r.Seq)
		b = appendUbytes(b, r.Spec)
	}
	return b
}

// errCorrupt marks an undecodable payload (bad length, short buffer).
var errCorrupt = errors.New("store: corrupt record")

// byteCursor walks a record payload.
type byteCursor struct {
	b   []byte
	off int
}

func (c *byteCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		return 0, errCorrupt
	}
	c.off += n
	return v, nil
}

func (c *byteCursor) ustring() (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(c.b)-c.off) {
		return "", errCorrupt
	}
	s := string(c.b[c.off : c.off+int(n)])
	c.off += int(n)
	return s, nil
}

func (c *byteCursor) ubytes() ([]byte, error) {
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(c.b)-c.off) {
		return nil, errCorrupt
	}
	p := append([]byte(nil), c.b[c.off:c.off+int(n)]...)
	c.off += int(n)
	return p, nil
}

func (c *byteCursor) float64() (float64, error) {
	if len(c.b)-c.off < 8 {
		return 0, errCorrupt
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.b[c.off:]))
	c.off += 8
	return v, nil
}

// recordCRC is the checksum a record's frame header carries for payload.
// A batch's payload is a wirebin frame whose trailer is the CRC-32C of the
// rest of it; the header repeats the trailer, and decoding the frame
// verifies it, so the batch is checksummed once on either side.
func recordCRC(payload []byte) uint32 {
	if n := len(payload); n > 4 && RecordType(payload[0]) == RecIngestBatch {
		return binary.LittleEndian.Uint32(payload[n-4:])
	}
	return crc32.Checksum(payload, castagnoli)
}

// decodeRecord parses one payload into r. A batch frame is decoded with
// dec to check it whole and count its entries; r.Frame aliases payload.
func decodeRecord(payload []byte, r *Record, dec *wirebin.Decoder) error {
	if len(payload) < 1 {
		return errCorrupt
	}
	r.Type = RecordType(payload[0])
	if r.Type == RecIngestBatch {
		fr, err := dec.Decode(payload)
		if err != nil || fr.Seq != 0 {
			return errCorrupt
		}
		r.Tenant, r.Frame, r.Count = fr.Tenant, payload, len(fr.Entries)
		return nil
	}
	c := byteCursor{b: payload, off: 1}
	var err error
	if r.Tenant, err = c.ustring(); err != nil {
		return err
	}
	switch r.Type {
	case RecIngest:
		if r.User, err = c.ustring(); err != nil {
			return err
		}
		g, err := c.uvarint()
		if err != nil {
			return err
		}
		r.Group = int(g)
		n, err := c.uvarint()
		if err != nil {
			return err
		}
		if n > uint64(len(c.b)-c.off)/8 {
			return errCorrupt
		}
		r.Values = make([]float64, n)
		for i := range r.Values {
			if r.Values[i], err = c.float64(); err != nil {
				return err
			}
		}
	case RecRotate:
		if r.Seq, err = c.uvarint(); err != nil {
			return err
		}
	case RecJoin:
		if r.User, err = c.ustring(); err != nil {
			return err
		}
		g, err := c.uvarint()
		if err != nil {
			return err
		}
		r.Group = int(g)
	case RecTenantCreate:
		if r.Spec, err = c.ubytes(); err != nil {
			return err
		}
	case RecTenantDelete:
	case RecMergeDelta:
		if r.User, err = c.ustring(); err != nil {
			return err
		}
		if r.Seq, err = c.uvarint(); err != nil {
			return err
		}
		if r.Spec, err = c.ubytes(); err != nil {
			return err
		}
	default:
		return errCorrupt
	}
	return nil
}

// readSegment reads one segment file whole and calls emit for every
// intact record; batch records alias the bytes read. It returns the byte
// offset of the end of the last intact record (the truncation point when
// the tail is torn), the next LSN after it, and whether a torn or corrupt
// tail was found. A file too short for the header counts as torn at
// offset 0.
func readSegment(fs FS, path string, emit func(*Record)) (good int64, nextLSN uint64, torn bool, err error) {
	f, err := fs.Open(path)
	if err != nil {
		return 0, 0, false, err
	}
	data, err := io.ReadAll(f)
	_ = f.Close()
	if err != nil {
		return 0, 0, false, err
	}
	if len(data) < walHeaderSize || string(data[:len(walMagic)]) != walMagic {
		return 0, 0, true, nil
	}
	lsn := binary.LittleEndian.Uint64(data[len(walMagic):])
	var dec wirebin.Decoder
	for p := data[walHeaderSize:]; len(p) > 0; {
		if len(p) < frameHeaderSize {
			return int64(len(data) - len(p)), lsn, true, nil
		}
		n := binary.LittleEndian.Uint32(p[:4])
		if uint64(n) > uint64(len(p)-frameHeaderSize) {
			return int64(len(data) - len(p)), lsn, true, nil
		}
		payload := p[frameHeaderSize : frameHeaderSize+int(n)]
		var r Record
		if recordCRC(payload) != binary.LittleEndian.Uint32(p[4:8]) ||
			decodeRecord(payload, &r, &dec) != nil {
			return int64(len(data) - len(p)), lsn, true, nil
		}
		r.LSN = lsn
		lsn += r.Span()
		p = p[frameHeaderSize+int(n):]
		emit(&r)
	}
	return int64(len(data)), lsn, false, nil
}
