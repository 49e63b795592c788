package transport

import (
	"errors"
	"io"
	"net/http"

	"repro/internal/stream"
	"repro/internal/wirebin"
)

// The merge plane is the scale-out deployment of the collector: node
// collectors seal epochs locally and push the resulting deltas
// (CRC-sealed wirebin frames, media type wirebin.DeltaContentType) to a
// coordinator, which folds them into merged per-epoch estimates through
// the same window path a single collector runs. The routes below exist
// only on a server built with ServerOptions.Coordinator; a plain
// collector serves 404 for them.

// handleMerge accepts one delta frame per request on POST /v1/merge.
func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) {
	if !s.limitBody(w, r) {
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != "" && ct != wirebin.DeltaContentType {
		writeErr(w, http.StatusUnsupportedMediaType,
			"merge expects %s, got %s", wirebin.DeltaContentType, ct)
		return
	}
	frame, err := io.ReadAll(r.Body)
	if err != nil {
		writeErr(w, decodeStatus(err), "reading delta frame: %v", err)
		return
	}
	res, err := s.opts.Coordinator.Apply(frame)
	if err != nil {
		writeMergeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, MergeResponse{
		Status: res.Status, Epoch: res.Epoch,
		Published: res.Published, Degraded: res.Degraded,
	})
}

// writeMergeErr maps a merge rejection onto the wire. Frame corruption
// and shape mismatches are permanent (4xx — a retry resends the same
// bytes); only a dead store is retryable.
func writeMergeErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, stream.ErrUnknownNode):
		writeErr(w, http.StatusForbidden, "%v", err)
	case errors.Is(err, stream.ErrUnknownTenant):
		writeErr(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, stream.ErrShapeMismatch):
		writeErr(w, http.StatusConflict, "%v", err)
	case errors.Is(err, stream.ErrStoreDown):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeErr(w, http.StatusBadRequest, "%v", err)
	}
}

// handleMergeEstimate serves the merged estimate of one tenant on
// GET /v1/merge/estimate/{tenant} — the coordinator-side mirror of
// GET /v1/tenants/{tenant}/estimate.
func (s *Server) handleMergeEstimate(w http.ResponseWriter, r *http.Request) {
	snap, err := s.opts.Coordinator.Estimate(r.PathValue("tenant"))
	if err != nil {
		if errors.Is(err, stream.ErrUnknownTenant) {
			writeErr(w, http.StatusNotFound, "%v", err)
			return
		}
		writeErr(w, http.StatusConflict, "merged estimate: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, estimateResponse(snap))
}

// mergeStatusInfo renders the coordinator state for the admin plane.
func mergeStatusInfo(c *stream.Coordinator) *MergeStatusInfo {
	st := c.Status()
	out := &MergeStatusInfo{
		Quorum:      st.Quorum,
		StragglerMs: st.Straggler.Milliseconds(),
		Degraded:    st.Degraded,
	}
	for _, n := range st.Nodes {
		info := MergeNodeInfo{Node: n.Node, LastEpoch: n.LastEpoch, Deltas: n.Deltas}
		if !n.LastSeen.IsZero() {
			info.LastSeenMs = n.LastSeen.UnixMilli()
		}
		out.Nodes = append(out.Nodes, info)
	}
	for _, t := range st.Tenants {
		out.Tenants = append(out.Tenants, MergeTenantInfo{
			Tenant: t.Tenant, Published: t.Published, Degraded: t.Degraded,
			Pending: t.Pending, LastError: t.LastError,
		})
	}
	return out
}
