package store

import (
	"time"

	"repro/internal/metrics"
)

// WAL and snapshot metrics. Counters and histograms update inline on the
// append/sync path (pre-bound handles, no allocation); the level gauges
// (segment count, WAL size, snapshot age, degraded flag) are derived from
// Health at scrape time via SyncMetrics, so the write path never pays for
// them. When several stores live in one process (tests), the most recent
// SyncMetrics caller wins the gauges — in production there is one store.
var (
	metAppends = metrics.NewCounter("dap_wal_appends_total",
		"WAL log positions (LSNs) appended durably: one per ingested report, one per other record.")
	metAppendBytes = metrics.NewCounter("dap_wal_bytes_total",
		"Bytes written to the WAL by successful group commits.")
	metAppendFailures = metrics.NewCounter("dap_wal_append_failures_total",
		"WAL write or fsync failures that degraded the store (failed batches roll back and refund).")
	metBatchRecords = metrics.NewHistogram("dap_wal_group_commit_records",
		"WAL log positions (LSNs) coalesced per group-commit write: one per ingested report, one per other record.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384})
	metFsync = metrics.NewHistogram("dap_wal_fsync_duration_seconds",
		"WAL fsync(2) latency.",
		[]float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1})
	metSnapshots = metrics.NewCounter("dap_store_snapshots_total",
		"Snapshots written and atomically published.")

	metSegments = metrics.NewGauge("dap_wal_segments",
		"Live WAL segment files.")
	metWALBytes = metrics.NewGauge("dap_wal_size_bytes",
		"Total size of live WAL segments.")
	metSnapAge = metrics.NewGauge("dap_store_snapshot_age_seconds",
		"Seconds since this process wrote a snapshot; -1 when none yet.")
	metDegraded = metrics.NewGauge("dap_store_degraded",
		"1 when the store is degraded (last append or sync failed), else 0.")
)

// SyncMetrics refreshes the store-level gauges from current Health. The
// /metrics handler calls it once per scrape.
func (s *Store) SyncMetrics() {
	h := s.Health()
	metSegments.Set(float64(h.Segments))
	metWALBytes.Set(float64(h.WALBytes))
	if h.LastSnapshot.IsZero() {
		metSnapAge.Set(-1)
	} else {
		metSnapAge.Set(time.Since(h.LastSnapshot).Seconds())
	}
	metDegraded.SetBool(!h.Healthy)
}

// observeFsync records one fsync latency.
func observeFsync(start time.Time) {
	metFsync.Observe(time.Since(start).Seconds())
}
