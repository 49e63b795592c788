package wirebin

import (
	"hash/crc32"
	"math"
	"unsafe"
)

// maxInterned caps the decoder's tenant-name intern table; past it the
// table is reset rather than growing without bound under an adversarial
// name stream. A reset costs the next frame of each live tenant one
// allocation, nothing more.
const maxInterned = 1 << 10

// A Frame is one decoded ingest batch. Entries, their Values and their
// User strings alias the decoder's reused arenas: a frame is valid until
// the next Decode call on the same decoder, and whoever keeps a user id
// longer copies it (the engine's per-user table does, once, on first
// insert). Tenant is an interned copy and safe to retain.
type Frame struct {
	// Tenant is the frame's tenant name ("" = transport-scoped).
	Tenant string
	// Seq is the sender's batch sequence (0 = unsequenced).
	Seq uint64
	// Entries are the batch reports, ready for Tenant.IngestBatch.
	Entries []Entry
}

// entrySpan is one parsed entry before materialization: the user id is
// ubuf[ulo:uhi], values live at arena[lo:hi]. Spans are materialized only
// after the whole frame parsed, because both arenas may move while they
// grow.
type entrySpan struct {
	ulo, uhi int
	group    int
	lo, hi   int
}

// A Decoder decodes frames into reused arenas — zero allocations per
// frame in the steady state (user ids are not copied out of the id arena,
// stable tenant names hit the intern table). A Decoder is not safe for
// concurrent use; pool decoders, one per in-flight frame.
type Decoder struct {
	frame  Frame
	spans  []entrySpan
	values []float64
	ubuf   []byte
	intern map[string]string
}

// Verify cheaply checks a frame's envelope — length bounds, magic,
// version, reserved flags and the CRC-32C trailer — without decoding the
// body. Stream transports carrying several frames per request use it to
// validate every frame before applying any, so a corrupted stream is
// rejected whole with no state touched.
//
//dapvet:hotpath
func Verify(buf []byte) error {
	if len(buf) < headerSize+trailerSize {
		return ErrFrameTooShort
	}
	if len(buf) > MaxFrameBytes {
		return ErrFrameTooLarge
	}
	if buf[0] != magic[0] || buf[1] != magic[1] || buf[2] != magic[2] || buf[3] != magic[3] {
		return ErrBadMagic
	}
	if buf[4] != Version {
		return ErrBadVersion
	}
	if buf[5] != 0 {
		return ErrCorrupt // reserved flags must be zero in v1
	}
	body := buf[:len(buf)-trailerSize]
	if crc32.Checksum(body, crcTable) != le32(buf[len(buf)-trailerSize:]) {
		return ErrBadCRC
	}
	return nil
}

// Decode parses one frame from buf. On success the returned frame is
// valid until the next Decode call (see Frame); on any error the frame is
// rejected as a whole and no partial state is returned. buf is not
// retained.
//
//dapvet:hotpath
func (d *Decoder) Decode(buf []byte) (*Frame, error) {
	if err := Verify(buf); err != nil {
		return nil, err
	}
	body := buf[:len(buf)-trailerSize]
	seq := le64(buf[6:])
	p := body[headerSize:]
	tenantN, p, ok := readUvarint(p)
	if !ok || tenantN > MaxTenantLen || uint64(len(p)) < tenantN {
		return nil, ErrCorrupt
	}
	tenant := d.internBytes(p[:tenantN])
	p = p[tenantN:]
	count, p, ok := readUvarint(p)
	// Each entry takes at least 6 bytes (two varints, group, count, mode,
	// one value byte), which bounds count by the remaining bytes before
	// anything is allocated for it.
	if !ok || count == 0 || count > MaxFrameEntries || count > uint64(len(p))/6+1 {
		return nil, ErrCorrupt
	}
	spans := d.spans[:0]
	values := d.values[:0]
	ubuf := d.ubuf[:0]
	prevLo, prevHi := 0, 0 // previous user id as a ubuf range
	for i := uint64(0); i < count; i++ {
		prefix, rest, ok := readUvarint(p)
		if !ok {
			return nil, ErrCorrupt
		}
		suffix, rest, ok := readUvarint(rest)
		if !ok || prefix > uint64(prevHi-prevLo) || prefix+suffix == 0 ||
			prefix+suffix > MaxUserLen || uint64(len(rest)) < suffix {
			return nil, ErrCorrupt
		}
		lo := len(ubuf)
		ubuf = append(ubuf, ubuf[prevLo:prevLo+int(prefix)]...)
		ubuf = append(ubuf, rest[:suffix]...)
		prevLo, prevHi = lo, len(ubuf)
		rest = rest[suffix:]
		group, rest, ok := readUvarint(rest)
		if !ok || group > math.MaxInt32 {
			return nil, ErrCorrupt
		}
		nvals, rest, ok := readUvarint(rest)
		if !ok || nvals == 0 || nvals > MaxEntryValues || len(rest) == 0 {
			return nil, ErrCorrupt
		}
		mode := rest[0]
		rest = rest[1:]
		vlo := len(values)
		switch mode {
		case valuesVarint:
			for j := uint64(0); j < nvals; j++ {
				var u uint64
				// Values ≥ 2^32 are never varint-packed by the encoder
				// (packable rejects them); accepting one here would make
				// the frame non-canonical.
				if u, rest, ok = readUvarint(rest); !ok || u >= 1<<32 {
					return nil, ErrCorrupt
				}
				values = append(values, float64(u))
			}
		case valuesFloat64:
			if uint64(len(rest)) < nvals*8 {
				return nil, ErrCorrupt
			}
			for j := uint64(0); j < nvals; j++ {
				values = append(values, math.Float64frombits(le64(rest[j*8:])))
			}
			rest = rest[nvals*8:]
		default:
			return nil, ErrCorrupt
		}
		spans = append(spans, entrySpan{ulo: prevLo, uhi: prevHi, group: int(group), lo: vlo, hi: len(values)})
		p = rest
	}
	if len(p) != 0 {
		return nil, ErrCorrupt // trailing garbage inside the CRC'd body
	}
	// Materialize only now: the arenas have stopped moving, so the
	// sub-slices and the id strings laid over ubuf stay valid for the
	// frame's lifetime (prefix+suffix > 0 above: no id is empty).
	entries := d.frame.Entries[:0]
	for i := range spans {
		sp := &spans[i]
		entries = append(entries, Entry{
			User:   unsafe.String(&ubuf[sp.ulo], sp.uhi-sp.ulo),
			Group:  sp.group,
			Values: values[sp.lo:sp.hi:sp.hi],
		})
	}
	d.spans, d.values, d.ubuf = spans, values, ubuf
	d.frame = Frame{Tenant: tenant, Seq: seq, Entries: entries}
	return &d.frame, nil
}

// internBytes returns the canonical string for tenant name b, allocating
// only the first time a given name is seen. The compiler elides the []byte→string
// conversion in the map lookup, so the hit path allocates nothing.
//
//dapvet:hotpath
func (d *Decoder) internBytes(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := d.intern[string(b)]; ok {
		return s
	}
	if d.intern == nil || len(d.intern) >= maxInterned {
		d.intern = make(map[string]string, 64)
	}
	s := string(b)
	d.intern[s] = s
	return s
}

// readUvarint decodes one LEB128 varint from p, returning the value and
// the remaining bytes. ok is false on truncation or a value overflowing
// 64 bits.
//
//dapvet:hotpath
func readUvarint(p []byte) (uint64, []byte, bool) {
	var x uint64
	var shift uint
	for i := 0; i < len(p); i++ {
		b := p[i]
		if b < 0x80 {
			if shift >= 63 && b > 1 {
				return 0, p, false
			}
			return x | uint64(b)<<shift, p[i+1:], true
		}
		if shift >= 63 {
			return 0, p, false
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, p, false
}

// le32 reads a little-endian uint32.
//
//dapvet:hotpath
func le32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// le64 reads a little-endian uint64.
//
//dapvet:hotpath
func le64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
