// Package wirebin is the compact binary ingest wire: a versioned,
// CRC-framed batch format carrying LDP reports at a few bytes per report,
// built for the multi-million-reports/s ingest path where JSON
// serialization and per-value tokenization are the ceiling.
//
// One frame is one ingest batch: a fixed header (magic, version, batch
// sequence), the tenant name, and a run of entries — front-coded user ids
// (each user id stores only the byte suffix it does not share with the
// previous entry's id, which collapses the generated "u000123"-style id
// streams to one or two bytes), varint group ids, and the report values
// either varint-packed (when every value is a small non-negative integer
// — discretizer bucket indices and frequency categories, reconstructed
// bit-exactly) or as raw little-endian float64 payloads when a raw
// perturbed value is required. A CRC-32C trailer covers the whole frame,
// so a torn or corrupted datagram is rejected as a unit.
//
// The same frame travels over two transports: as an HTTP request body
// with Content-Type application/x-dap-frame (lossless, acked per batch)
// and as one UDP datagram per frame (best-effort; the batch sequence in
// the header lets the receiver count dropped frames). Frames decode into
// Entry slices — the exact type Tenant.IngestBatch consumes — so WAL
// group-commit, budget charging and stripe-ordered apply are shared
// verbatim with the JSON path. The durable store logs each accepted batch
// as one frame too, so the wire and the WAL share this one codec.
//
// Encoding and decoding are allocation-free in the steady state: the
// Encoder appends into one reused buffer, and the Decoder materializes
// entries into reused arenas — user ids included, as strings laid over
// the id arena that live as long as the frame — interning only the tenant
// name.
package wirebin

import (
	"errors"
	"hash/crc32"
	"math"
	"math/bits"
)

// Entry is one report in a frame: a user's values for one group.
// store.IngestEntry and stream.BatchEntry alias it, so decoded frames feed
// Tenant.IngestBatch and Store.AppendIngestBatch without copying.
type Entry struct {
	User   string
	Group  int
	Values []float64
}

// ContentType is the HTTP media type for a frame request body.
const ContentType = "application/x-dap-frame"

// ContentTypeStream is the HTTP media type for a body carrying several
// frames back to back, each preceded by a uvarint byte length. One
// request then amortizes the HTTP round trip over many frames while the
// frame format itself stays datagram-compatible.
const ContentTypeStream = "application/x-dap-frame-stream"

// Format constants. Version bumps when the layout changes; decoders
// reject versions they do not speak rather than guessing.
const (
	// Version is the frame layout version this package encodes.
	Version = 1

	// headerSize is the fixed prefix: magic (4), version (1), flags (1),
	// sequence (8).
	headerSize = 14
	// trailerSize is the CRC-32C suffix.
	trailerSize = 4

	// valuesVarint packs every value of the entry as a uvarint — exact
	// for the non-negative integers bucket indices and categories are.
	valuesVarint = 0
	// valuesFloat64 stores every value as 8 raw little-endian bytes.
	valuesFloat64 = 1
)

// Hard limits. They bound what a hostile or corrupted frame can make the
// decoder allocate; the encoder enforces the same limits so every encoded
// frame decodes.
const (
	// MaxTenantLen and MaxUserLen bound the identifier strings.
	MaxTenantLen = 255
	MaxUserLen   = 255
	// MaxFrameEntries bounds the entries of one frame.
	MaxFrameEntries = 1 << 16
	// MaxEntryValues bounds the values of one entry. A user reports at
	// most 2^t times for group t, and t < core.MaxGroups = 16, so every
	// entry the engine accepts fits; MaxFrameBytes still bounds what a
	// hostile frame can make the decoder allocate.
	MaxEntryValues = 1 << 15
	// MaxFrameBytes bounds a whole frame. HTTP bodies may use all of it;
	// UDP senders should stay under MaxDatagramBytes.
	MaxFrameBytes = 1 << 20
	// MaxDatagramBytes is the largest frame that still fits one UDP
	// datagram with headroom for the IP/UDP headers.
	MaxDatagramBytes = 60 << 10
)

// magic identifies a frame ("DAP frame").
var magic = [4]byte{'D', 'A', 'P', 'F'}

// crcTable is the Castagnoli polynomial, matching the WAL's framing.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Decode errors. They are sentinel values (not formatted) so the decode
// hot path stays allocation-free; transports wrap them with context.
var (
	// ErrFrameTooShort reports a buffer smaller than header + trailer.
	ErrFrameTooShort = errors.New("wirebin: frame too short")
	// ErrBadMagic reports a buffer that is not a frame at all.
	ErrBadMagic = errors.New("wirebin: bad frame magic")
	// ErrBadVersion reports a frame version this decoder does not speak.
	ErrBadVersion = errors.New("wirebin: unsupported frame version")
	// ErrBadCRC reports a checksum mismatch (torn or corrupted frame).
	ErrBadCRC = errors.New("wirebin: frame CRC mismatch")
	// ErrCorrupt reports a structurally invalid frame body (truncated
	// varint, limit overflow, out-of-range front-coding prefix).
	ErrCorrupt = errors.New("wirebin: corrupt frame body")
	// ErrFrameTooLarge reports an encode exceeding MaxFrameBytes or a
	// field exceeding its limit.
	ErrFrameTooLarge = errors.New("wirebin: frame exceeds size limits")
)

// An Encoder builds frames into one reused buffer.
//
// The returned frame aliases the encoder's internal buffer and is valid
// until the next Encode call; senders that need to retain a frame copy it.
// An Encoder is not safe for concurrent use — give each sender goroutine
// its own.
type Encoder struct {
	buf []byte
}

// Encode builds one frame: tenant (may be empty when the transport
// carries the tenant out of band, as HTTP routes do), batch sequence seq
// (0 = unsequenced; UDP senders use 1,2,3,… so receivers can count gaps)
// and the batch entries. It fails — without producing a frame — when an
// identifier, an entry or the whole frame exceeds the format limits, or
// when an entry is empty (the engine would reject it anyway, and an empty
// user id would break front-coding).
func (e *Encoder) Encode(tenant string, seq uint64, entries []Entry) ([]byte, error) {
	if len(tenant) > MaxTenantLen || len(entries) > MaxFrameEntries {
		return nil, ErrFrameTooLarge
	}
	if len(entries) == 0 {
		return nil, ErrCorrupt
	}
	b := e.buf[:0]
	b = append(b, magic[:]...)
	b = append(b, Version, 0)
	b = appendUint64(b, seq)
	b = appendUvarint(b, uint64(len(tenant)))
	b = append(b, tenant...)
	b = appendUvarint(b, uint64(len(entries)))
	prev := ""
	for i := range entries {
		ent := &entries[i]
		if len(ent.User) == 0 || len(ent.User) > MaxUserLen ||
			ent.Group < 0 || len(ent.Values) == 0 || len(ent.Values) > MaxEntryValues {
			e.buf = b[:0]
			return nil, ErrCorrupt
		}
		p := commonPrefix(prev, ent.User)
		b = appendUvarint(b, uint64(p))
		b = appendUvarint(b, uint64(len(ent.User)-p))
		b = append(b, ent.User[p:]...)
		b = appendUvarint(b, uint64(ent.Group))
		b = appendUvarint(b, uint64(len(ent.Values)))
		if packable(ent.Values) {
			b = append(b, valuesVarint)
			for _, v := range ent.Values {
				b = appendUvarint(b, uint64(v))
			}
		} else {
			b = append(b, valuesFloat64)
			for _, v := range ent.Values {
				b = appendUint64(b, math.Float64bits(v))
			}
		}
		prev = ent.User
	}
	if len(b)+trailerSize > MaxFrameBytes {
		e.buf = b[:0]
		return nil, ErrFrameTooLarge
	}
	b = appendUint32(b, crc32.Checksum(b, crcTable))
	e.buf = b
	return b, nil
}

// packable reports whether every value is a non-negative integer below
// 2^32 with a positive sign bit — the values varint packing reconstructs
// bit-exactly (bucket indices, categories). Anything else (fractions,
// negatives, negative zero, NaN, ±Inf, huge integers) takes the raw
// float64 payload.
func packable(values []float64) bool {
	for _, v := range values {
		if math.Signbit(v) || !(v < 1<<32) || v != float64(uint32(v)) {
			return false
		}
	}
	return true
}

// commonPrefix returns the length of the longest shared prefix of a and
// b. It compares eight bytes at a time, the last eight overlapping those
// already compared: consecutive ids of a batch share most of their bytes,
// and the WAL front-codes every accepted batch.
func commonPrefix(a, b string) int {
	n := min(len(a), len(b))
	if n < 8 {
		i := 0
		for i < n && a[i] == b[i] {
			i++
		}
		return i
	}
	for i := 0; i+8 < n; i += 8 {
		if x := le64s(a[i:]) ^ le64s(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	if x := le64s(a[n-8:]) ^ le64s(b[n-8:]); x != 0 {
		return n - 8 + bits.TrailingZeros64(x)/8
	}
	return n
}

// le64s reads a little-endian uint64 from the first eight bytes of s.
func le64s(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// appendUvarint appends x in LEB128 (unsigned varint) form.
func appendUvarint(b []byte, x uint64) []byte {
	for x >= 0x80 {
		b = append(b, byte(x)|0x80)
		x >>= 7
	}
	return append(b, byte(x))
}

// appendUint64 appends x little-endian.
func appendUint64(b []byte, x uint64) []byte {
	return append(b,
		byte(x), byte(x>>8), byte(x>>16), byte(x>>24),
		byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56))
}

// appendUint32 appends x little-endian.
func appendUint32(b []byte, x uint32) []byte {
	return append(b, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
}
