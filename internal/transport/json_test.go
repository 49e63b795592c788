package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/stream"
)

// sameEntries reports how got differs from want's reports, bit for bit
// on every value; "" when they are equal.
func sameEntries(got []stream.BatchEntry, want []ReportRequest) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d entries, want %d", len(got), len(want))
	}
	for i, e := range got {
		w := want[i]
		if e.User != w.User || e.Group != w.Group || len(e.Values) != len(w.Values) {
			return fmt.Sprintf("entry %d = %q/%d/%d values, want %q/%d/%d values",
				i, e.User, e.Group, len(e.Values), w.User, w.Group, len(w.Values))
		}
		for j, v := range e.Values {
			if math.Float64bits(v) != math.Float64bits(w.Values[j]) {
				return fmt.Sprintf("entry %d value %d = %v (%#x), want %v (%#x)",
					i, j, v, math.Float64bits(v), w.Values[j], math.Float64bits(w.Values[j]))
			}
		}
	}
	return ""
}

// FuzzIngestJSON holds the scanner to encoding/json: for any body it
// either declines, or returns exactly the entries json.Unmarshal decodes —
// as an ingest body and as a single-report body alike.
func FuzzIngestJSON(f *testing.F) {
	f.Add([]byte(`{"reports":[{"user":"u1","group":0,"values":[0.5]}]}`))
	var fc ingestCodec // reused across inputs, as the pool reuses it
	f.Fuzz(func(t *testing.T, body []byte) {
		if got, ok := fc.scanIngest(body); ok {
			var req IngestRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatalf("scanner accepted an ingest body encoding/json rejects: %v", err)
			}
			if d := sameEntries(got, req.Reports); d != "" {
				t.Fatalf("ingest body decodes differently: %s", d)
			}
		}
		if got, ok := fc.scanReport(body); ok {
			var req ReportRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatalf("scanner accepted a report body encoding/json rejects: %v", err)
			}
			if d := sameEntries([]stream.BatchEntry{got}, []ReportRequest{req}); d != "" {
				t.Fatalf("report body decodes differently: %s", d)
			}
		}
	})
}

// producerReports is a batch shaped like the repo's own traffic: the
// load generator's ids and group sizes, PM-perturbed values, and the
// float spellings encoding/json writes (-0, exponents, integers).
func producerReports(t *testing.T, groups []core.Group, n int) []ReportRequest {
	t.Helper()
	out := make([]ReportRequest, 0, n)
	for i, e := range frameWorkload(t, groups, n) {
		out = append(out, ReportRequest{User: "lg" + strconv.Itoa(i), Group: e.Group, Values: e.Values})
	}
	out[0].Values[0] = math.Copysign(0, -1)
	out[1].Values[0] = 1e-7
	out[2].Values[0] = -2.5e-300
	out[3].Values[0] = 3
	return out
}

// TestJSONProducersTakeFastPath: every body the repo's own producers
// write is in the canonical grammar, so the scanner decodes it with no
// fallback — TenantClient.Ingest and Report (json.Encoder, as daploadgen
// -wire json sends), and json.Marshal(IngestRequest) as the benchmark's
// generator encodes it — and it decodes to what encoding/json gives.
func TestJSONProducersTakeFastPath(t *testing.T) {
	srv, err := NewServerOpts(mustConfig(t), ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu     sync.Mutex
		bodies = map[string][][]byte{}
	)
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		route := r.URL.Path[strings.LastIndexByte(r.URL.Path, '/')+1:]
		mu.Lock()
		bodies[route] = append(bodies[route], b)
		mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(b))
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	tc := NewClient(ts.URL, ts.Client()).Tenant(DefaultTenant)
	ctx := context.Background()

	reports := producerReports(t, defaultTenant(t, srv).Groups(), 200)
	if out, err := tc.Ingest(ctx, reports[:150]); err != nil || out.Rejected != 0 {
		t.Fatalf("ingest: %v (%+v)", err, out)
	}
	for _, r := range reports[150:] {
		if err := tc.Report(ctx, r.User, r.Group, r.Values); err != nil {
			t.Fatalf("report: %v", err)
		}
	}
	marshaled, err := json.Marshal(IngestRequest{Reports: reports})
	if err != nil {
		t.Fatal(err)
	}

	var fc ingestCodec
	check := func(name string, body []byte, want []ReportRequest) {
		t.Helper()
		got, ok := fc.scanIngest(body)
		if !ok {
			t.Fatalf("%s body took the encoding/json fallback: %.120q", name, body)
		}
		if d := sameEntries(got, want); d != "" {
			t.Fatalf("%s body: %s", name, d)
		}
	}
	if n := len(bodies["ingest"]); n != 1 {
		t.Fatalf("%d ingest bodies sent, want 1", n)
	}
	check("TenantClient.Ingest", bodies["ingest"][0], reports[:150])
	check("json.Marshal", marshaled, reports)
	if n := len(bodies["report"]); n != 50 {
		t.Fatalf("%d report bodies sent, want 50", n)
	}
	for i, body := range bodies["report"] {
		got, ok := fc.scanReport(body)
		if !ok {
			t.Fatalf("TenantClient.Report body took the encoding/json fallback: %q", body)
		}
		if d := sameEntries([]stream.BatchEntry{got}, reports[150+i:151+i]); d != "" {
			t.Fatalf("TenantClient.Report body %d: %s", i, d)
		}
	}
}

// TestScanJSONAllocFree: a warm codec decodes a canonical 200-user body,
// and a single-report body, without allocating.
func TestScanJSONAllocFree(t *testing.T) {
	srv, _ := newTestServer(t)
	reports := producerReports(t, defaultTenant(t, srv).Groups(), 200)
	body, err := json.Marshal(IngestRequest{Reports: reports})
	if err != nil {
		t.Fatal(err)
	}
	one, err := json.Marshal(reports[7])
	if err != nil {
		t.Fatal(err)
	}
	var fc ingestCodec
	if _, ok := fc.scanIngest(body); !ok {
		t.Fatal("canonical body declined")
	}
	if allocs := testing.AllocsPerRun(100, func() { fc.scanIngest(body) }); allocs != 0 {
		t.Errorf("scanIngest: %v allocs per 200-user body, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { fc.scanReport(one) }); allocs != 0 {
		t.Errorf("scanReport: %v allocs per report body, want 0", allocs)
	}
}

func defaultTenant(t *testing.T, srv *Server) *stream.Tenant {
	t.Helper()
	tn, ok := srv.Registry().Get(DefaultTenant)
	if !ok {
		t.Fatal("no default tenant")
	}
	return tn
}

// postJSON POSTs a JSON body to url and returns the status and error text.
func postJSON(t *testing.T, url string, body io.Reader) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e ErrorResponse
	_ = json.NewDecoder(resp.Body).Decode(&e)
	return resp.StatusCode, e.Error
}

// TestJSONTrailingDataRejected: both JSON routes answer 400 on anything
// but whitespace after the value, and apply nothing, so a second batch
// concatenated to the first is never dropped silently.
func TestJSONTrailingDataRejected(t *testing.T) {
	srv, err := NewServerOpts(mustConfig(t), ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ingest, report := ts.URL+"/v1/tenants/default/ingest", ts.URL+"/v1/tenants/default/report"
	const a = `{"reports":[{"user":"a","group":0,"values":[0.1]}]}`
	const b = `{"reports":[{"user":"b","group":0,"values":[0.2]}]}`
	const r = `{"user":"c","group":0,"values":[0.3]}`
	for _, tc := range []struct{ url, body string }{
		{ingest, a + b},
		{ingest, a + "\n" + b},
		{ingest, a + " x"},
		{report, r + " trailing"},
		{report, r + r},
		// The fallback path rejects trailing data the same way.
		{ingest, `{"reports":[{"group":0,"user":"a","values":[0.1]}]}` + b},
		{report, `{"group":0,"user":"c","values":[0.3]}]`},
	} {
		if status, msg := postJSON(t, tc.url, strings.NewReader(tc.body)); status != http.StatusBadRequest {
			t.Errorf("%s %q = %d %q, want 400", tc.url[len(ts.URL):], tc.body, status, msg)
		}
	}
	if n := defaultTenant(t, srv).Status().Users; n != 0 {
		t.Fatalf("rejected bodies bound %d users, want 0", n)
	}
	// Whitespace after the value is fine.
	for _, tc := range []struct{ url, body string }{
		{ingest, a + " \r\n\t"},
		{report, r + "\n"},
	} {
		if status, msg := postJSON(t, tc.url, strings.NewReader(tc.body)); status != http.StatusOK {
			t.Errorf("%q = %d %q, want 200", tc.body, status, msg)
		}
	}
}

// TestJSONChunkedBodyLimit: a body with no declared length that runs past
// MaxIngestBytes answers 413 on both JSON routes — the limit holds while
// the body is read whole, not only on the declared-length fast fail.
func TestJSONChunkedBodyLimit(t *testing.T) {
	srv, err := NewServerOpts(mustConfig(t), ServerOptions{MaxIngestBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.ContentLength != -1 {
			t.Errorf("request declared %d bytes, want a chunked body", r.ContentLength)
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	big := IngestRequest{}
	for i := range 200 {
		big.Reports = append(big.Reports, ReportRequest{User: fmt.Sprintf("user-%d", i), Values: []float64{0.5}})
	}
	ingestBody, err := json.Marshal(big)
	if err != nil {
		t.Fatal(err)
	}
	reportBody, err := json.Marshal(ReportRequest{User: "u", Values: make([]float64, 400)})
	if err != nil {
		t.Fatal(err)
	}
	for route, body := range map[string][]byte{"ingest": ingestBody, "report": reportBody} {
		// MultiReader hides the length, so the client sends it chunked.
		chunked := io.MultiReader(bytes.NewReader(body))
		status, msg := postJSON(t, ts.URL+"/v1/tenants/default/"+route, chunked)
		if status != http.StatusRequestEntityTooLarge {
			t.Errorf("chunked oversized %s = %d %q, want 413", route, status, msg)
		}
	}
	if n := defaultTenant(t, srv).Status().Users; n != 0 {
		t.Fatalf("oversized bodies bound %d users, want 0", n)
	}
}
