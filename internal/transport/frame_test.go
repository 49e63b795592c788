package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ldp/pm"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/wirebin"
)

// frameWorkload builds one deterministic report stream: honest
// PM-perturbed values for round-robin groups, the same generated ids the
// load generator uses. Every call returns the identical stream, so the
// same entries can travel each wire.
func frameWorkload(t *testing.T, groups []core.Group, n int) []wirebin.Entry {
	t.Helper()
	r := rng.New(42)
	entries := make([]wirebin.Entry, n)
	for i := range entries {
		g := groups[i%len(groups)]
		m, err := pm.New(g.Eps)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]float64, g.Reports)
		for j := range vals {
			vals[j] = m.Perturb(r, 0.3)
		}
		entries[i] = wirebin.Entry{User: fmt.Sprintf("u%04d", i), Group: g.Index, Values: vals}
	}
	return entries
}

// snapshotBits renders an estimate snapshot's result as canonical JSON.
// Go's shortest-representation float marshaling is injective on finite
// float64 (including the -0 sign), so byte equality is bit equality.
func snapshotBits(t *testing.T, snap *stream.Snapshot) string {
	t.Helper()
	b, err := json.Marshal(snap.Result)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("reports=%v epoch=%d %s", snap.Reports, snap.Epoch, b)
}

// waitReports polls a tenant until its ingested report count reaches
// want — how tests on the best-effort UDP wire wait for delivery.
func waitReports(t *testing.T, tn *stream.Tenant, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := 0
		for _, n := range tn.Status().GroupReports {
			got += int(n)
		}
		if got >= want {
			if got > want {
				t.Fatalf("tenant %s ingested %d reports, want %d", tn.Name(), got, want)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant %s stuck at %d/%d reports", tn.Name(), got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWireEquivalence drives the identical report stream through all
// three ingest wires — JSON over HTTP, binary frames over HTTP, binary
// frames over UDP — into three identically-specified tenants, and
// requires bit-identical epoch estimates and identical per-user budget
// ledgers. This is the acceptance gate that the binary fast path shares
// the engine semantics of the JSON path exactly.
func TestWireEquivalence(t *testing.T) {
	srv, c := newTestServer(t)
	lis, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	sp := core.Spec{Task: core.TaskMean, Eps: 1, Eps0: 0.25, Scheme: "EMF*"}
	reg := srv.Registry()
	names := []string{"wire-json", "wire-bin", "wire-udp"}
	tenants := make(map[string]*stream.Tenant, len(names))
	for _, name := range names {
		tn, err := reg.CreateSpec(name, sp)
		if err != nil {
			t.Fatal(err)
		}
		tenants[name] = tn
	}
	entries := frameWorkload(t, tenants["wire-json"].Groups(), 300)
	total := 0
	for i := range entries {
		total += len(entries[i].Values)
	}
	const batch = 50
	ctx := context.Background()

	// JSON over HTTP, sequentially (bit-identity needs one apply order).
	jc := c.Tenant("wire-json")
	for lo := 0; lo < len(entries); lo += batch {
		reports := make([]ReportRequest, 0, batch)
		for _, e := range entries[lo:min(lo+batch, len(entries))] {
			reports = append(reports, ReportRequest{User: e.User, Group: e.Group, Values: e.Values})
		}
		out, err := jc.Ingest(ctx, reports)
		if err != nil || out.Rejected != 0 {
			t.Fatalf("json ingest: %v (rejected %d: %v)", err, out.Rejected, out.Errors)
		}
	}

	// The same frames over lossless HTTP, coalesced two frames per request
	// (the frame-stream wire the load generator uses).
	bc := c.Tenant("wire-bin")
	const coalesce = 2
	for lo, seq := 0, uint64(1); lo < len(entries); seq += coalesce {
		var batches [][]wirebin.Entry
		for range coalesce {
			if lo >= len(entries) {
				break
			}
			batches = append(batches, entries[lo:min(lo+batch, len(entries))])
			lo += batch
		}
		out, err := bc.IngestFrames(ctx, seq, batches)
		if err != nil || out.Rejected != 0 {
			t.Fatalf("binary ingest: %v (rejected %d: %v)", err, out.Rejected, out.Errors)
		}
		wantSeq := seq + uint64(len(batches)) - 1
		if out.Seq != wantSeq || out.Frames != len(batches) {
			t.Fatalf("stream ack seq=%d frames=%d, want seq=%d frames=%d",
				out.Seq, out.Frames, wantSeq, len(batches))
		}
	}

	// The same frames as UDP datagrams (loss-free loopback), waiting for
	// the asynchronous deliveries to land.
	uc, err := DialUDP(lis.Addr().String(), "wire-udp")
	if err != nil {
		t.Fatal(err)
	}
	defer uc.Close()
	for lo := 0; lo < len(entries); lo += batch {
		if _, err := uc.Send(entries[lo:min(lo+batch, len(entries))]); err != nil {
			t.Fatal(err)
		}
	}
	waitReports(t, tenants["wire-udp"], total)

	// Seal one epoch everywhere and compare the estimates bit for bit.
	bits := make(map[string]string, len(names))
	for _, name := range names {
		snap, err := tenants[name].Rotate()
		if err != nil {
			t.Fatal(err)
		}
		bits[name] = snapshotBits(t, snap)
	}
	if bits["wire-bin"] != bits["wire-json"] {
		t.Fatalf("binary HTTP estimate differs from JSON:\n json %s\n bin  %s",
			bits["wire-json"], bits["wire-bin"])
	}
	if bits["wire-udp"] != bits["wire-json"] {
		t.Fatalf("UDP estimate differs from JSON:\n json %s\n udp  %s",
			bits["wire-json"], bits["wire-udp"])
	}

	// Identical accountant state: same users, same per-user spend.
	ledger := tenants["wire-json"].Accountant().Export()
	for _, name := range names[1:] {
		if got := tenants[name].Accountant().Export(); !maps.Equal(ledger, got) {
			t.Fatalf("%s budget ledger differs from JSON's:\n json %v\n %s %v",
				name, ledger, name, got)
		}
	}
}

// TestWireIDsOutliveTheirBuffers: decoded user ids are only valid until
// the decoder's next frame, so the engine must have copied what it keeps.
// Each wire carries two batches through the same decoder, the second with
// ids of the first's length — it overwrites the id arena in place — and
// the ledger and bindings must still be under both batches' own ids.
func TestWireIDsOutliveTheirBuffers(t *testing.T) {
	srv, c := newTestServer(t)
	lis, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	sp := core.Spec{Task: core.TaskMean, Eps: 1, Eps0: 0.25, Scheme: "EMF*"}
	ctx := context.Background()
	batchOf := func(prefix string) []wirebin.Entry {
		entries := make([]wirebin.Entry, 40)
		for i := range entries {
			entries[i] = wirebin.Entry{User: fmt.Sprintf("%s%03d", prefix, i), Group: 2, Values: []float64{0.1}}
		}
		return entries
	}
	sends := map[string]func(tn *stream.Tenant, entries []wirebin.Entry) error{
		"json": func(tn *stream.Tenant, entries []wirebin.Entry) error {
			reports := make([]ReportRequest, len(entries))
			for i, e := range entries {
				reports[i] = ReportRequest{User: e.User, Group: e.Group, Values: e.Values}
			}
			_, err := c.Tenant(tn.Name()).Ingest(ctx, reports)
			return err
		},
		"bin": func(tn *stream.Tenant, entries []wirebin.Entry) error {
			_, err := c.Tenant(tn.Name()).IngestFrames(ctx, 0, [][]wirebin.Entry{entries})
			return err
		},
		"udp": func(tn *stream.Tenant, entries []wirebin.Entry) error {
			uc, err := DialUDP(lis.Addr().String(), tn.Name())
			if err != nil {
				return err
			}
			defer uc.Close()
			before := tn.Status().GroupReports[2]
			if _, err := uc.Send(entries); err != nil {
				return err
			}
			waitReports(t, tn, int(before)+len(entries))
			return nil
		},
	}
	for wire, send := range sends {
		tn, err := srv.Registry().CreateSpec("ids-"+wire, sp)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[string]float64)
		for _, prefix := range []string{"first-", "later-"} {
			entries := batchOf(prefix)
			if err := send(tn, entries); err != nil {
				t.Fatalf("%s: %v", wire, err)
			}
			for _, e := range entries {
				want[e.User] = 0.25
			}
		}
		if got := tn.Accountant().Export(); !maps.Equal(got, want) {
			t.Errorf("%s: ledger keys were not copied out of the wire's buffers:\n got %v", wire, got)
		}
		if err := tn.Ingest("first-007", 1, []float64{0.1}); !errors.Is(err, stream.ErrWrongGroup) {
			t.Errorf("%s: first batch's binding lost: reporting first-007 to group 1 gave %v", wire, err)
		}
	}
}

// TestUDPLoss drops stamped frames on purpose: the receiver's gap
// accounting must count exactly the skipped frames, and the tenant must
// have ingested exactly the values of the frames that did arrive.
func TestUDPLoss(t *testing.T) {
	srv, _ := newTestServer(t)
	lis, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	sp := core.Spec{Task: core.TaskMean, Eps: 1, Eps0: 0.25, Scheme: "EMF*"}
	tn, err := srv.Registry().CreateSpec("lossy", sp)
	if err != nil {
		t.Fatal(err)
	}
	entries := frameWorkload(t, tn.Groups(), 120)
	uc, err := DialUDP(lis.Addr().String(), "lossy")
	if err != nil {
		t.Fatal(err)
	}
	defer uc.Close()

	// The metrics registry is process-global, so assert deltas.
	droppedBefore := metUDPDropped.Value()
	const batch = 20
	var skippedFrames uint64
	delivered := 0
	for lo, i := 0, 0; lo < len(entries); lo, i = lo+batch, i+1 {
		part := entries[lo:min(lo+batch, len(entries))]
		if i%3 == 1 {
			// Simulate a lost datagram: burn the sequence, send nothing.
			uc.Skip(1)
			skippedFrames++
			continue
		}
		if _, err := uc.Send(part); err != nil {
			t.Fatal(err)
		}
		for _, e := range part {
			delivered += len(e.Values)
		}
	}
	waitReports(t, tn, delivered)
	// The final arrived frame closes every gap, so the counter is exact
	// once delivery caught up (waitReports above saw the last frame).
	if d := metUDPDropped.Value() - droppedBefore; d != skippedFrames {
		t.Fatalf("dropped-frame counter advanced by %d, want %d", d, skippedFrames)
	}
}

// TestFrameHTTPRejects exercises the HTTP frame branch's failure paths:
// corrupt frames answer 400 without touching the engine, and a frame
// naming a different tenant than its route is rejected whole.
func TestFrameHTTPRejects(t *testing.T) {
	srv, c := newTestServer(t)
	ctx := context.Background()
	var enc wirebin.Encoder
	entries := []wirebin.Entry{{User: "u0", Group: 0, Values: []float64{0.5}}}

	// Tenant mismatch: frame says "other", route says "default".
	frame, err := enc.Encode("other", 1, entries)
	if err != nil {
		t.Fatal(err)
	}
	if err := postRawFrame(ctx, c, frame); err == nil {
		t.Fatal("mismatched frame tenant accepted")
	}

	// Corrupt frame: flip a body byte so the CRC fails.
	frame, err = enc.Encode("", 1, entries)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), frame...)
	bad[len(bad)/2] ^= 0xff
	if err := postRawFrame(ctx, c, bad); err == nil {
		t.Fatal("corrupt frame accepted")
	}

	// A well-formed frame without a tenant lands on the route's tenant.
	if frame, err = enc.Encode("", 7, entries); err != nil {
		t.Fatal(err)
	}
	out, err := postRaw(ctx, c, wirebin.ContentType, frame)
	if err != nil {
		t.Fatal(err)
	}
	if out.Accepted != 1 || out.Seq != 7 {
		t.Fatalf("frame ingest: %+v", out)
	}
	st, err := c.Tenant(DefaultTenant).Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for _, n := range st.GroupReports {
		got += n
	}
	if got != 1 {
		t.Fatalf("%d reports landed after frame ingest, want 1", got)
	}
	_ = srv
}

// TestFrameStreamRejects exercises the frame-stream failure paths: a
// malformed length prefix or a corrupt frame anywhere in the stream
// rejects the whole request before any frame is applied.
func TestFrameStreamRejects(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	var enc wirebin.Encoder
	encode := func(seq uint64) []byte {
		frame, err := enc.Encode("", seq, []wirebin.Entry{{User: "u0", Group: 0, Values: []float64{0.5}}})
		if err != nil {
			t.Fatal(err)
		}
		return append([]byte(nil), frame...)
	}
	reports := func() int {
		st, err := c.Tenant(DefaultTenant).Status(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for _, n := range st.GroupReports {
			got += n
		}
		return got
	}

	// A length prefix running past the body rejects the whole stream.
	frame := encode(1)
	body := binary.AppendUvarint(nil, uint64(len(frame)+99))
	body = append(body, frame...)
	if err := postRawStream(ctx, c, body); err == nil {
		t.Fatal("oversized length prefix accepted")
	}

	// A corrupt second frame rejects the stream before the valid first
	// frame is applied: all-or-nothing against line corruption.
	good, bad := encode(1), encode(2)
	bad[len(bad)/2] ^= 0xff
	body = binary.AppendUvarint(nil, uint64(len(good)))
	body = append(body, good...)
	body = binary.AppendUvarint(body, uint64(len(bad)))
	body = append(body, bad...)
	if err := postRawStream(ctx, c, body); err == nil {
		t.Fatal("stream with corrupt frame accepted")
	}
	if got := reports(); got != 0 {
		t.Fatalf("%d reports landed from rejected streams, want 0", got)
	}

	// The same two frames intact land both.
	out, err := c.Tenant(DefaultTenant).IngestFrames(ctx, 1, [][]wirebin.Entry{
		{{User: "u0", Group: 0, Values: []float64{0.5}}},
		{{User: "u1", Group: 1, Values: []float64{-0.5}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Accepted != 2 || out.Frames != 2 || out.Seq != 2 {
		t.Fatalf("stream ingest: %+v", out)
	}
	if got := reports(); got != 2 {
		t.Fatalf("%d reports landed after stream ingest, want 2", got)
	}
}

// postRawFrame posts pre-encoded frame bytes to the default ingest route,
// bypassing the client's encoder so tests can send broken frames.
func postRawFrame(ctx context.Context, c *Client, frame []byte) error {
	_, err := postRaw(ctx, c, wirebin.ContentType, frame)
	return err
}

// postRawStream posts raw frame-stream body bytes (length-prefixed
// frames), bypassing the client's stream builder.
func postRawStream(ctx context.Context, c *Client, body []byte) error {
	_, err := postRaw(ctx, c, wirebin.ContentTypeStream, body)
	return err
}

func postRaw(ctx context.Context, c *Client, contentType string, body []byte) (*IngestResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/tenants/default/ingest", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	var out IngestResponse
	if err := c.do(req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
