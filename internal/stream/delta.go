package stream

import (
	"repro/internal/privacy"
	"repro/internal/wirebin"
)

// EpochDelta is one sealed epoch exported for the merge plane: the
// tenant's per-group bucket counts and report totals, the per-stripe
// value sums, and the node's cumulative per-user budget ledger at seal
// time. It is the decoded form of a wirebin delta frame — a node's seal
// hook fills Node and ships wirebin.EncodeDelta(d); the coordinator
// merges decoded deltas from many nodes into the same epochHist shape a
// single-node seal would have produced.
//
// Sums travel per stripe rather than per group because group sums are
// floating-point accumulations: the coordinator re-folds stripes in
// stripe-index order — exactly the single-node seal's fold — so when
// nodes own disjoint stripes (route users with StripeOf) the merged sum
// is bit-identical to one node ingesting everything.
type EpochDelta = wirebin.Delta

// StripeOf returns the histogram stripe user maps to in a tenant with
// the given stripe count — the same FNV-1a assignment the engine uses
// internally. A multi-node deployment routes each user to node
// StripeOf(user, shards) % nodes so every stripe has exactly one owner,
// the condition under which merged sums are bit-identical to
// single-node ingestion (counts merge exactly regardless).
func StripeOf(user string, shards int) int {
	return int(privacy.Hash(user) % uint64(shards))
}

// SetSealHook registers fn to receive an EpochDelta after every live
// seal (rotations; replays during recovery do not fire it). The hook
// runs outside the tenant's locks on the rotating goroutine — a slow
// hook delays that rotation's estimate but never blocks ingest. Pass
// nil to clear. The delta's Node field is left empty for the hook to
// fill; its Counts/Ns alias the sealed epoch's immutable histograms.
func (t *Tenant) SetSealHook(fn func(*EpochDelta)) {
	t.mu.Lock()
	t.onSeal = fn
	t.mu.Unlock()
}

// Shards returns the tenant's per-group stripe count — the shards value
// delta partitioning must agree on across nodes.
func (t *Tenant) Shards() int { return t.cfg.Shards }

// SetSealHook registers fn on every current and future tenant of the
// registry (see Tenant.SetSealHook). A node-role collector installs its
// delta pusher here once, after recovery — replayed seals never fire
// the hook, so recovery cannot re-push old epochs.
func (r *Registry) SetSealHook(fn func(*EpochDelta)) {
	r.mu.Lock()
	r.sealHook = fn
	ts := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		ts = append(ts, t)
	}
	r.mu.Unlock()
	for _, t := range ts {
		t.SetSealHook(fn)
	}
}
