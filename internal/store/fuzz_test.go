package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wirebin"
)

// fuzzRecordsEqual compares records field-wise with bit-exact float
// comparison, so NaN payloads round-tripping through the codec count as
// equal instead of tripping on NaN != NaN.
func fuzzRecordsEqual(a, b *Record) bool {
	if a.Type != b.Type || a.Tenant != b.Tenant || a.User != b.User ||
		a.Group != b.Group || a.Seq != b.Seq || !bytes.Equal(a.Spec, b.Spec) ||
		!bytes.Equal(a.Frame, b.Frame) || a.Count != b.Count {
		return false
	}
	if len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			return false
		}
	}
	return true
}

// encodePayload is encodeRecord plus the per-report RecIngest encoder
// the store no longer has, so payloads of older logs round-trip here too.
func encodePayload(r *Record) []byte {
	if r.Type != RecIngest {
		return encodeRecord(nil, r)
	}
	b := appendUstring([]byte{byte(RecIngest)}, r.Tenant)
	b = appendUstring(b, r.User)
	b = binary.AppendUvarint(b, uint64(r.Group))
	b = binary.AppendUvarint(b, uint64(len(r.Values)))
	for _, v := range r.Values {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// batchPayloads returns batch-record payloads: a good two-entry frame, the
// same frame torn, one claiming three entries (CRC recomputed, so only
// the body walk catches it), and one with a body byte flipped under the
// old CRC.
func batchPayloads() (good, torn, badCount, badCRC []byte) {
	var enc wirebin.Encoder
	fr, err := enc.Encode("t", 0, []wirebin.Entry{
		{User: "u0", Group: 1, Values: []float64{0.25, math.NaN()}},
		{User: "u1", Group: 0, Values: []float64{3}},
	})
	if err != nil {
		panic(err)
	}
	good = append([]byte(nil), fr...)
	torn = good[:len(good)/2]
	// Header (14) | tenant length (1) | "t" | entry count.
	badCount = append([]byte(nil), good...)
	badCount[16] = 3
	body := badCount[:len(badCount)-4]
	binary.LittleEndian.PutUint32(badCount[len(body):], crc32.Checksum(body, castagnoli))
	badCRC = append([]byte(nil), good...)
	badCRC[len(badCRC)/2] ^= 0x40
	return good, torn, badCount, badCRC
}

// segmentOf frames payloads as a WAL segment starting at LSN 1, each
// under the checksum recordCRC reads for it.
func segmentOf(payloads ...[]byte) []byte {
	b := append([]byte(walMagic), 1, 0, 0, 0, 0, 0, 0, 0)
	for _, p := range payloads {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
		b = binary.LittleEndian.AppendUint32(b, recordCRC(p))
		b = append(b, p...)
	}
	return b
}

// FuzzWALRecord feeds arbitrary bytes to the WAL record payload decoder:
// it must never panic, and any payload it accepts must re-encode to a
// canonical form that decodes back to the identical record.
func FuzzWALRecord(f *testing.F) {
	seeds := []Record{
		{Type: RecIngest, Tenant: "t", User: "u", Group: 1, Values: []float64{0.25, math.NaN(), -1}},
		{Type: RecRotate, Tenant: "t", Seq: 42},
		{Type: RecJoin, Tenant: "t", User: "u", Group: 0},
		{Type: RecTenantCreate, Tenant: "t", Spec: []byte(`{"task":"mean"}`)},
		{Type: RecTenantDelete, Tenant: "gone"},
		{Type: RecMergeDelta, Tenant: "t", User: "node-1", Seq: 7, Spec: []byte("DAPD\x01\x00frame")},
	}
	for i := range seeds {
		f.Add(encodePayload(&seeds[i]))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x01, 0x02})
	good, torn, badCount, badCRC := batchPayloads()
	for _, p := range [][]byte{good, torn, badCount, badCRC} {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var r Record
		var dec wirebin.Decoder
		if err := decodeRecord(payload, &r, &dec); err != nil {
			return // rejected input: only the no-panic property applies
		}
		enc := encodePayload(&r)
		var r2 Record
		if err := decodeRecord(enc, &r2, &dec); err != nil {
			t.Fatalf("re-encoded accepted record fails to decode: %v", err)
		}
		if !fuzzRecordsEqual(&r, &r2) {
			t.Fatalf("record round-trip mismatch:\n first %+v\nsecond %+v", r, r2)
		}
		if enc2 := encodePayload(&r2); !bytes.Equal(enc, enc2) {
			t.Fatalf("encode is not canonical:\n first %x\nsecond %x", enc, enc2)
		}
	})
}

// FuzzWALSegment feeds arbitrary bytes to the CRC-framed segment reader
// as a segment file: torn and corrupt tails must come back as torn or
// error, never as a panic, and the good-bytes offset can never exceed the
// file length.
func FuzzWALSegment(f *testing.F) {
	var frame []byte
	frame = append(frame, walMagic...)
	frame = append(frame, 1, 0, 0, 0, 0, 0, 0, 0)
	f.Add(frame)                             // header only
	f.Add(append([]byte(nil), frame[:4]...)) // torn header
	f.Add([]byte("not a wal segment at all"))
	good, torn, badCount, badCRC := batchPayloads()
	rotate := encodeRecord(nil, &Record{Type: RecRotate, Tenant: "t", Seq: 1})
	whole := segmentOf(rotate, good, good)
	f.Add(whole)                       // a rotate and two batches
	f.Add(whole[:len(whole)-5])        // the last batch torn
	f.Add(segmentOf(rotate, torn))     // a batch record shorter than its frame
	f.Add(segmentOf(rotate, badCount)) // a frame claiming too many entries
	f.Add(segmentOf(rotate, badCRC))   // a frame failing its own CRC
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		good, _, _, err := readSegment(OS{}, path, func(*Record) {})
		if err != nil {
			return
		}
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good offset %d out of range [0,%d]", good, len(data))
		}
	})
}

// FuzzSnapshot feeds arbitrary bytes to the snapshot decoder: no panics,
// and accepted snapshots re-encode canonically.
func FuzzSnapshot(f *testing.F) {
	f.Add(encodeSnapshot(&Snapshot{}))
	f.Add([]byte{})
	f.Add([]byte("DAPSNAPgarbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		enc := encodeSnapshot(snap)
		snap2, err := decodeSnapshot(enc)
		if err != nil {
			t.Fatalf("re-encoded accepted snapshot fails to decode: %v", err)
		}
		if enc2 := encodeSnapshot(snap2); !bytes.Equal(enc, enc2) {
			t.Fatalf("snapshot encode is not canonical")
		}
	})
}
