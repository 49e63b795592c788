package transport

import (
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/wirebin"
)

// Binary-frame metric families, shared by the HTTP frame branch and the
// UDP listener. Children are pre-bound per transport below, so the frame
// hot path increments plain handles — no label hashing per frame.
var (
	metFramesDecoded = metrics.NewCounterVec("dap_frames_decoded_total",
		"Binary ingest frames decoded and handed to the engine, by transport.", "transport")
	metFramesRejected = metrics.NewCounterVec("dap_frames_rejected_total",
		"Binary ingest frames rejected before reaching the engine (bad CRC, corrupt body, unknown tenant, recovery gate), by transport.", "transport")
	metFrameDecodeDur = metrics.NewHistogramVec("dap_frames_decode_seconds",
		"Binary frame decode latency by transport.",
		[]float64{0.000005, 0.00002, 0.0001, 0.0005, 0.002, 0.01, 0.05}, "transport")
)

// frameMetrics is one transport's pre-bound frame handles.
type frameMetrics struct {
	decoded   *metrics.Counter
	rejected  *metrics.Counter
	decodeDur *metrics.Histogram
}

func bindFrameMetrics(transport string) frameMetrics {
	return frameMetrics{
		decoded:   metFramesDecoded.With(transport),
		rejected:  metFramesRejected.With(transport),
		decodeDur: metFrameDecodeDur.With(transport),
	}
}

// Both transports' children exist from process start, so the families
// appear in scrapes (at zero) before the first frame arrives.
var (
	frameHTTP = bindFrameMetrics("http")
	frameUDP  = bindFrameMetrics("udp")
)

// ingestCodec is the pooled per-request state of the HTTP ingest routes:
// the body read buffer, the frame decoder with a frame-slice scratch for
// stream bodies, and the JSON scanner's entry and value arenas. Pooling
// keeps both wires allocation-free in the steady state: the arenas and
// the decoder's intern table warm up once per pooled instance, and they
// live only in the pool, never in a long-lived slice.
type ingestCodec struct {
	buf    []byte
	dec    wirebin.Decoder
	frames [][]byte
	// entries and values are the JSON scanner's arenas (json.go).
	entries []stream.BatchEntry
	values  []float64
}

var codecPool = sync.Pool{New: func() any { return new(ingestCodec) }}

// readBody drains r into the codec's reused buffer.
func (fc *ingestCodec) readBody(r io.Reader, sizeHint int64) ([]byte, error) {
	b := fc.buf[:0]
	if n := int(sizeHint); n > 0 && n <= wirebin.MaxFrameBytes && cap(b) < n {
		b = make([]byte, 0, n)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			fc.buf = b
			return b, nil
		}
		if err != nil {
			fc.buf = b
			return nil, err
		}
	}
}

// isFrameRequest reports whether the ingest request body is binary
// (a single frame or a frame stream) rather than JSON.
func isFrameRequest(r *http.Request) bool {
	return strings.HasPrefix(r.Header.Get("Content-Type"), wirebin.ContentType)
}

// isFrameStream reports whether the body carries several length-prefixed
// frames rather than exactly one.
func isFrameStream(r *http.Request) bool {
	return strings.HasPrefix(r.Header.Get("Content-Type"), wirebin.ContentTypeStream)
}

// handleIngestFrame is the binary branch of the ingest route: one frame
// per request body — or, with the stream content type, several
// length-prefixed frames — lossless (the response acks the last applied
// frame's sequence; Frames counts the applied prefix). A frame's tenant must be empty or match the route's tenant;
// the URL is authoritative, a mismatched frame is rejected whole.
func (s *Server) handleIngestFrame(w http.ResponseWriter, r *http.Request, t *stream.Tenant) {
	fc := codecPool.Get().(*ingestCodec)
	defer codecPool.Put(fc)
	body, err := fc.readBody(r.Body, r.ContentLength)
	if err != nil {
		frameHTTP.rejected.Inc()
		writeErr(w, decodeStatus(err), "reading frame: %v", err)
		return
	}
	frames := fc.frames[:0]
	if isFrameStream(r) {
		// Split and CRC-verify every frame before applying any: a request
		// corrupted in flight is rejected whole with no state touched.
		for rest := body; len(rest) > 0; {
			n, k := binary.Uvarint(rest)
			if k <= 0 || n == 0 || n > uint64(len(rest)-k) {
				frameHTTP.rejected.Inc()
				writeErr(w, http.StatusBadRequest, "malformed frame-stream length prefix")
				return
			}
			frames = append(frames, rest[k:k+int(n)])
			rest = rest[k+int(n):]
		}
		fc.frames = frames
		for _, raw := range frames {
			if err := wirebin.Verify(raw); err != nil {
				frameHTTP.rejected.Inc()
				status := http.StatusBadRequest
				if errors.Is(err, wirebin.ErrFrameTooLarge) {
					status = http.StatusRequestEntityTooLarge
				}
				writeErr(w, status, "%v", err)
				return
			}
		}
	} else {
		frames = append(frames, body)
	}
	if len(frames) == 0 {
		frameHTTP.rejected.Inc()
		writeErr(w, http.StatusBadRequest, "empty frame stream")
		return
	}
	var out IngestResponse
	for _, raw := range frames {
		start := time.Now()
		fr, err := fc.dec.Decode(raw)
		if err != nil {
			frameHTTP.rejected.Inc()
			if out.Frames > 0 {
				// CRC held (pre-verified) but the body is structurally
				// invalid — an encoder bug, not line noise. Earlier frames
				// are already applied (same per-entry semantics as JSON
				// ingest), so report rather than pretend to roll back.
				out.Errors = append(out.Errors, err.Error())
				break
			}
			status := http.StatusBadRequest
			if errors.Is(err, wirebin.ErrFrameTooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			writeErr(w, status, "%v", err)
			return
		}
		frameHTTP.decodeDur.Observe(time.Since(start).Seconds())
		if fr.Tenant != "" && fr.Tenant != t.Name() {
			frameHTTP.rejected.Inc()
			if out.Frames > 0 {
				out.Errors = append(out.Errors,
					"frame tenant "+fr.Tenant+" does not match route tenant "+t.Name())
				break
			}
			writeErr(w, http.StatusBadRequest,
				"frame tenant %q does not match route tenant %q", fr.Tenant, t.Name())
			return
		}
		frameHTTP.decoded.Inc()
		res, err := applyBatch(t, fr.Entries)
		if err != nil {
			if out.Frames > 0 {
				// The store failed under a later frame: the earlier ones
				// landed and spent their users' budgets, so a 503 inviting
				// a resend of the whole body would be wrong. Ack the
				// applied prefix and report the failure.
				out.Errors = append(out.Errors, err.Error())
				break
			}
			writeEngineErr(w, err)
			return
		}
		out.Accepted += res.Accepted
		out.Rejected += res.Rejected
		for _, e := range res.Errors {
			if len(out.Errors) >= maxIngestErrors {
				break
			}
			out.Errors = append(out.Errors, e)
		}
		out.Seq = fr.Seq
		out.Frames++
	}
	writeJSON(w, http.StatusOK, out)
}

// applyBatch hands one decoded batch to the engine — the shared tail of
// the JSON, binary-HTTP and UDP ingest paths, so WAL group-commit, budget
// charging and stripe-ordered apply are identical across wires. A dead
// store fails every staged entry and rolls the batch back; that comes
// back as an error (the whole batch is retryable), anything else is
// per-entry accept/reject.
func applyBatch(t *stream.Tenant, entries []stream.BatchEntry) (IngestResponse, error) {
	var out IngestResponse
	for i, err := range t.IngestBatch(entries) {
		if err != nil {
			if errors.Is(err, stream.ErrStoreDown) {
				return out, err
			}
			out.Rejected++
			if len(out.Errors) < maxIngestErrors {
				out.Errors = append(out.Errors, err.Error())
			}
			continue
		}
		out.Accepted += len(entries[i].Values)
	}
	return out, nil
}
