// Package stream is the serving layer of the DAP reproduction: a
// streaming aggregation engine that turns the paper's one-shot batch
// collector into a long-lived, multi-tenant service.
//
// Three layers compose:
//
//   - Sharded histograms (shard.go). Per (tenant, group) the live epoch is
//     a set of lock-striped count histograms over the mechanism's
//     discretized output domain. Ingesting a report is a bucket-index
//     computation plus a counter increment under one stripe's lock —
//     memory is O(shards·h·d′) regardless of how many reports arrive, and
//     ingest throughput scales with the stripe count instead of
//     serializing on a global mutex. The bucket indices are computed with
//     ldp.Discretizer, which reproduces emf.(*Matrix).Counts exactly, so a
//     histogram accumulated report-by-report equals the batch histogram
//     bucket-for-bucket and the downstream estimate is identical (the
//     histogram-equivalence invariant, enforced by tests).
//
//   - Epoch windows (tenant.go). Rotate seals the live shards into an
//     immutable epoch snapshot, re-estimates the configured window (the
//     sealed epoch for tumbling windows, the last Span sealed epochs for
//     sliding ones) and caches the result, so reading an estimate is a
//     pointer load — always fresh without rescanning reports. Live
//     estimates that fold in the unsealed epoch are available on demand.
//
//   - A tenant registry (registry.go). One process hosts many concurrent
//     aggregations — each defined by a declarative task spec (core.Spec)
//     and estimated through the single core.Build surface — with its own
//     parameters, privacy accountant, histograms and epoch clock.
//
// A tenant is configured by a core.Spec and nothing else: the task section
// selects the protocol via core.Build (the same call path batch estimation
// uses), and the spec's Serve section carries the engine parameters
// (shards, bucket resolution, epoch windows). ConfigFromSpec fills that
// section's defaults; the result is the tenant's effective spec.
package stream

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
)

// ConfigFromSpec validates sp as a stream tenant's configuration and
// returns the effective spec: normalized, with every Serve field the
// engine reads filled in. A missing Serve section, or any of its fields
// left zero, selects the engine defaults: 4096 expected users (from which
// each group's histogram resolution follows by the paper's rule, exactly
// as the batch collector would pick for the same collection), 8 lock
// stripes per group histogram and a one-epoch window. A fixed Buckets is
// rounded down to even and floored at 8 like emf.BucketCounts, and a
// tumbling window always spans one epoch. The effective spec is what a
// tenant reports (Tenant.Spec), persists and recovers from, so it fully
// recreates the tenant.
func ConfigFromSpec(sp core.Spec) (core.Spec, error) {
	if sp.Serve == nil {
		sp.Serve = &core.ServeSpec{}
	}
	// Normalize works on a copy of the Serve section (the caller's stays
	// as given) and canonicalizes its window name.
	sp = sp.Normalize()
	if err := sp.Validate(); err != nil {
		return sp, err
	}
	switch sp.Task {
	case core.TaskMean, core.TaskFrequency, core.TaskDistribution:
	default:
		return sp, fmt.Errorf("%w: task %q cannot run as a stream tenant",
			core.ErrBadSpec, sp.Task)
	}
	if sp.Defense != nil {
		return sp, fmt.Errorf("%w: defense comparators need raw reports and cannot run as stream tenants",
			core.ErrBadSpec)
	}
	if sp.Attack != nil {
		return sp, fmt.Errorf("%w: attack sections are simulation-only and cannot cross the wire (strip the attack before creating a tenant)",
			core.ErrBadSpec)
	}
	s := sp.Serve
	if s.EpochMs > math.MaxInt64/int64(time.Millisecond) {
		return sp, fmt.Errorf("%w: epoch_ms %d overflows a duration", core.ErrBadSpec, s.EpochMs)
	}
	if s.ExpectedUsers == 0 {
		s.ExpectedUsers = 4096
	}
	switch {
	case sp.Task == core.TaskFrequency:
		// k-RR histograms always have k buckets. The field is dropped,
		// not rejected: older stores logged frequency specs carrying it.
		s.Buckets = 0
	case s.Buckets > 0:
		s.Buckets = max(s.Buckets&^1, 8)
	}
	if s.Shards == 0 {
		s.Shards = 8
	}
	if s.Span == 0 || s.Window != "sliding" {
		s.Span = 1
	}
	return sp, nil
}
