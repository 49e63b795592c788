package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ldp/pm"
	"repro/internal/wirebin"
)

// Client talks to a DAP collector service.
type Client struct {
	base string
	hc   *http.Client

	// Retry policy: transient failures (network errors and 5xx responses)
	// are retried up to retries times with exponential backoff plus jitter,
	// honouring Retry-After. Zero retries (the default) fails fast.
	retries      int
	retryMaxWait time.Duration
	retried      atomic.Int64
}

// NewClient creates a client for the collector at base URL (no trailing
// slash). A nil HTTP client selects http.DefaultClient.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: base, hc: hc}
}

// SetRetry configures transient-failure retries: up to n extra attempts
// per request, with exponential backoff plus jitter capped at maxWait
// (2s when non-positive). A server-sent Retry-After overrides the
// computed backoff. Only network errors and 5xx responses are retried —
// 4xx rejections are permanent. Call before sharing the client across
// goroutines.
func (c *Client) SetRetry(n int, maxWait time.Duration) {
	if n < 0 {
		n = 0
	}
	if maxWait <= 0 {
		maxWait = 2 * time.Second
	}
	c.retries = n
	c.retryMaxWait = maxWait
}

// Retries reports how many retry attempts the client has performed since
// creation. Safe for concurrent use.
func (c *Client) Retries() int64 {
	return c.retried.Load()
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

func (c *Client) post(ctx context.Context, path string, in, out any) error {
	var body bytes.Buffer
	if in != nil {
		if err := json.NewEncoder(&body).Encode(in); err != nil {
			return err
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, &body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out)
}

func (c *Client) do(req *http.Request, out any) error {
	for attempt := 0; ; attempt++ {
		resp, err := c.hc.Do(req)
		if err != nil {
			if attempt < c.retries && c.rewind(req) && c.backoff(req.Context(), attempt, "") {
				continue
			}
			return err
		}
		if resp.StatusCode >= 500 && attempt < c.retries && c.rewind(req) {
			after := resp.Header.Get("Retry-After")
			resp.Body.Close()
			if c.backoff(req.Context(), attempt, after) {
				continue
			}
			return fmt.Errorf("transport: %s %s: HTTP %d", req.Method, req.URL.Path, resp.StatusCode)
		}
		defer resp.Body.Close()
		if resp.StatusCode < 200 || resp.StatusCode > 299 {
			var e ErrorResponse
			if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
				return fmt.Errorf("transport: %s %s: %s", req.Method, req.URL.Path, e.Error)
			}
			return fmt.Errorf("transport: %s %s: HTTP %d", req.Method, req.URL.Path, resp.StatusCode)
		}
		if out == nil {
			return nil
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}
}

// rewind resets the request body for a retry. GET and other body-less
// requests always rewind; bodied requests need GetBody (set automatically
// by net/http for the *bytes.Buffer bodies post builds).
func (c *Client) rewind(req *http.Request) bool {
	if req.Body == nil {
		return true
	}
	if req.GetBody == nil {
		return false
	}
	body, err := req.GetBody()
	if err != nil {
		return false
	}
	req.Body = body
	return true
}

// backoff sleeps before retry attempt+1: a server-sent Retry-After wins,
// otherwise exponential backoff from 50ms with up to 50% jitter, capped
// at retryMaxWait. It returns false when the context is done.
func (c *Client) backoff(ctx context.Context, attempt int, retryAfter string) bool {
	wait := 50 * time.Millisecond
	if attempt >= 37 {
		// 50ms << 37 overflows time.Duration; anything this deep is past
		// every sane cap anyway.
		wait = c.retryMaxWait
	} else {
		wait <<= uint(attempt)
	}
	if retryAfter != "" {
		if secs, err := strconv.Atoi(retryAfter); err == nil && secs >= 0 {
			wait = time.Duration(secs) * time.Second
		}
	}
	// Clamp before computing jitter: a shifted or server-sent wait beyond
	// the cap (or one that overflowed negative) must not reach Int64N,
	// which panics on non-positive arguments.
	if wait <= 0 || wait > c.retryMaxWait {
		wait = c.retryMaxWait
	}
	wait += time.Duration(rand.Int64N(int64(wait)/2 + 1))
	if wait > c.retryMaxWait {
		wait = c.retryMaxWait
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		c.retried.Add(1)
		metClientRetries.Inc()
		return true
	}
}

// AdminStatus fetches the collector's operational health: recovery state,
// store health and last-snapshot age. It is served even while the
// collector is recovering. AdminStatus never retries — it is the endpoint
// used to decide whether retrying elsewhere makes sense.
func (c *Client) AdminStatus(ctx context.Context) (*AdminStatusResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/admin/status", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("transport: GET /v1/admin/status: HTTP %d", resp.StatusCode)
	}
	var out AdminStatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// frameEncoders pools the binary encoders behind IngestFrame so
// concurrent senders on one client reuse buffers without contention.
var frameEncoders = sync.Pool{New: func() any { return new(wirebin.Encoder) }}

// streamBufs pools the frame-stream body builders behind IngestFrames.
var streamBufs = sync.Pool{New: func() any { return new([]byte) }}

// PushDelta uploads one sealed epoch delta frame (wirebin.EncodeDelta)
// to a coordinator's merge plane. Safe to retry: a re-sent frame is
// acknowledged as a duplicate (epoch still open) or a late straggler
// (already published) without changing the merge state.
func (c *Client) PushDelta(ctx context.Context, frame []byte) (*MergeResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/merge", bytes.NewReader(frame))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", wirebin.DeltaContentType)
	var out MergeResponse
	if err := c.do(req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// MergeEstimate fetches a coordinator's merged estimate for a tenant.
func (c *Client) MergeEstimate(ctx context.Context, tenant string) (*EstimateResponse, error) {
	var out EstimateResponse
	if err := c.get(ctx, "/v1/merge/estimate/"+tenant, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CreateTenantSpec registers a new tenant from a task spec — the same
// JSON that drives batch estimation and the CLIs.
func (c *Client) CreateTenantSpec(ctx context.Context, name string, sp core.Spec) (*TenantStatusResponse, error) {
	var out TenantStatusResponse
	if err := c.post(ctx, "/v1/tenants", TenantRequest{Name: name, Spec: &sp}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Tenants lists all hosted tenants.
func (c *Client) Tenants(ctx context.Context) (*TenantListResponse, error) {
	var out TenantListResponse
	if err := c.get(ctx, "/v1/tenants", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DeleteTenant unregisters a tenant.
func (c *Client) DeleteTenant(ctx context.Context, name string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.base+"/v1/tenants/"+name, nil)
	if err != nil {
		return err
	}
	return c.do(req, nil)
}

// Tenant returns a client addressing the named tenant's routes; the
// tenant every collector boots with is c.Tenant(DefaultTenant).
func (c *Client) Tenant(name string) *TenantClient {
	return &TenantClient{c: c, prefix: "/v1/tenants/" + name}
}

// TenantClient scopes the wire API to one tenant.
type TenantClient struct {
	c      *Client
	prefix string
}

// Config fetches the tenant's configuration.
func (tc *TenantClient) Config(ctx context.Context) (*ConfigResponse, error) {
	var out ConfigResponse
	if err := tc.c.get(ctx, tc.prefix+"/config", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Join registers a user with the tenant.
func (tc *TenantClient) Join(ctx context.Context) (*JoinResponse, error) {
	var out JoinResponse
	if err := tc.c.post(ctx, tc.prefix+"/join", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Report uploads already-perturbed values for a group.
func (tc *TenantClient) Report(ctx context.Context, user string, group int, values []float64) error {
	var out ReportResponse
	return tc.c.post(ctx, tc.prefix+"/report", ReportRequest{User: user, Group: group, Values: values}, &out)
}

// Ingest uploads many reports in one round-trip.
func (tc *TenantClient) Ingest(ctx context.Context, reports []ReportRequest) (*IngestResponse, error) {
	var out IngestResponse
	if err := tc.c.post(ctx, tc.prefix+"/ingest", IngestRequest{Reports: reports}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// postIngestBody POSTs an encoded binary body to the tenant's ingest
// route under the given media type.
func (tc *TenantClient) postIngestBody(ctx context.Context, contentType string, body []byte) (*IngestResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, tc.c.base+tc.prefix+"/ingest", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	var out IngestResponse
	if err := tc.c.do(req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// IngestFrame uploads many reports as one binary frame — the same batch
// semantics as Ingest at a fraction of the serialization cost, lossless.
// seq is echoed back in the response (0 = unsequenced). The tenant
// travels in the URL, as on the JSON wire; the frame's tenant field stays
// empty.
func (tc *TenantClient) IngestFrame(ctx context.Context, seq uint64, entries []wirebin.Entry) (*IngestResponse, error) {
	enc := frameEncoders.Get().(*wirebin.Encoder)
	defer frameEncoders.Put(enc)
	frame, err := enc.Encode("", seq, entries)
	if err != nil {
		return nil, err
	}
	return tc.postIngestBody(ctx, wirebin.ContentType, frame)
}

// IngestFrames uploads several frame batches in one request (the frame
// stream wire): batch i is encoded as its own frame stamped sequence
// seqBase+i, the frames travel length-prefixed in one body, and the
// response accumulates accepted/rejected across all of them, acking the
// last applied frame's sequence.
func (tc *TenantClient) IngestFrames(ctx context.Context, seqBase uint64, batches [][]wirebin.Entry) (*IngestResponse, error) {
	enc := frameEncoders.Get().(*wirebin.Encoder)
	defer frameEncoders.Put(enc)
	bp := streamBufs.Get().(*[]byte)
	defer streamBufs.Put(bp)
	body := (*bp)[:0]
	for i, entries := range batches {
		frame, err := enc.Encode("", seqBase+uint64(i), entries)
		if err != nil {
			return nil, err
		}
		body = binary.AppendUvarint(body, uint64(len(frame)))
		body = append(body, frame...)
	}
	*bp = body
	return tc.postIngestBody(ctx, wirebin.ContentTypeStream, body)
}

// Status fetches the tenant's collection progress.
func (tc *TenantClient) Status(ctx context.Context) (*StatusResponse, error) {
	var out StatusResponse
	if err := tc.c.get(ctx, tc.prefix+"/status", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Estimate fetches the tenant's window estimate. live selects the source:
// "" lets the server prefer the per-epoch cache, "1" forces a live
// estimate including the unsealed epoch, "0" demands the cache.
func (tc *TenantClient) Estimate(ctx context.Context, live string) (*EstimateResponse, error) {
	path := tc.prefix + "/estimate"
	if live != "" {
		path += "?live=" + live
	}
	var out EstimateResponse
	if err := tc.c.get(ctx, path, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Rotate seals the tenant's current epoch and re-estimates the window.
func (tc *TenantClient) Rotate(ctx context.Context) (*EstimateResponse, error) {
	var out EstimateResponse
	if err := tc.c.post(ctx, tc.prefix+"/rotate", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SubmitValue performs a full honest-user round: join, perturb the value
// locally with the assigned group's budget (once per report slot), and
// upload. The raw value never leaves this function.
func (tc *TenantClient) SubmitValue(ctx context.Context, r *rand.Rand, value float64) (*JoinResponse, error) {
	join, err := tc.Join(ctx)
	if err != nil {
		return nil, err
	}
	mech, err := pm.New(join.Group.Eps)
	if err != nil {
		return nil, err
	}
	values := make([]float64, join.Group.Reports)
	for i := range values {
		values[i] = mech.Perturb(r, value)
	}
	if err := tc.Report(ctx, join.User, join.Group.Index, values); err != nil {
		return nil, err
	}
	return join, nil
}

// SubmitPoison performs a Byzantine round: join, then upload the given
// poison values directly (clamped to the report slot limit).
func (tc *TenantClient) SubmitPoison(ctx context.Context, values []float64) (*JoinResponse, error) {
	join, err := tc.Join(ctx)
	if err != nil {
		return nil, err
	}
	if len(values) > join.Group.Reports {
		values = values[:join.Group.Reports]
	}
	if err := tc.Report(ctx, join.User, join.Group.Index, values); err != nil {
		return nil, err
	}
	return join, nil
}
