package stream_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/wirebin"
)

// copyStore copies the store files under testdata/perreport-store/name
// into a fresh directory, so a test can recover and append to them.
func copyStore(t *testing.T, name string) string {
	t.Helper()
	src := filepath.Join("testdata", "perreport-store", name)
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// sameTenant fails unless got and want hold bit-identical ledgers, report
// counts and estimates, live and cached (or fail to estimate alike).
func sameTenant(t *testing.T, got, want *stream.Tenant) {
	t.Helper()
	if g, w := got.Accountant().Export(), want.Accountant().Export(); !reflect.DeepEqual(g, w) {
		t.Errorf("ledger %v, want %v", g, w)
	}
	if g, w := got.Status().GroupReports, want.Status().GroupReports; !reflect.DeepEqual(g, w) {
		t.Errorf("group reports %v, want %v", g, w)
	}
	for _, live := range []bool{false, true} {
		g, gerr := got.Estimate(live)
		w, werr := want.Estimate(live)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Errorf("live=%v estimate error %v, want %v", live, gerr, werr)
			continue
		}
		if gerr == nil && !reflect.DeepEqual(g.Result, w.Result) {
			t.Errorf("live=%v estimate differs:\n got %+v\nwant %+v", live, g.Result, w.Result)
		}
	}
}

// ingestBatches feeds reports to tn as IngestBatch calls of size n.
func ingestBatches(t *testing.T, tn *stream.Tenant, reports []report, n int) {
	t.Helper()
	for len(reports) > 0 {
		k := min(n, len(reports))
		b := make([]stream.BatchEntry, k)
		for i, r := range reports[:k] {
			b[i] = stream.BatchEntry{User: r.user, Group: r.group, Values: r.vals}
		}
		for i, err := range tn.IngestBatch(b) {
			if err != nil {
				t.Fatalf("ingest %s: %v", b[i].User, err)
			}
		}
		reports = reports[k:]
	}
}

// recordTypes counts the record types of the WAL under dir.
func recordTypes(t *testing.T, dir string) map[store.RecordType]int {
	t.Helper()
	st, err := store.Open(dir, store.Options{Sync: store.SyncOS})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	n := map[store.RecordType]int{}
	for _, r := range rec.Records {
		n[r.Type]++
	}
	return n
}

// TestRecoverPerReportLog recovers the stores under
// testdata/perreport-store, written by the collector before the WAL
// logged batches: a tenant create, 8 reports, a rotate and 16 more
// reports, each report its own RecIngest record, then a kill. The
// "snapshot" store was cut after the 16th report. Both must recover
// bit-identically, and so must the same log once batch records are
// appended to it.
func TestRecoverPerReportLog(t *testing.T) {
	sp := durableSpec("sliding")
	for _, name := range []string{"wal-only", "snapshot"} {
		t.Run(name, func(t *testing.T) {
			ref, err := stream.NewTenantSpec("p", sp)
			if err != nil {
				t.Fatal(err)
			}
			reports := workload(t, ref.Groups(), 12)
			ingestAll(t, ref, reports[:8])
			if _, err := ref.Rotate(); err != nil {
				t.Fatal(err)
			}
			ingestAll(t, ref, reports[8:24])

			dir := copyStore(t, name)
			if n := recordTypes(t, dir); n[store.RecIngest] == 0 || n[store.RecIngestBatch] != 0 {
				t.Fatalf("fixture record types %v, want per-report ingest records only", n)
			}
			reg, st, rep := openDurable(t, dir, nil)
			if rep.Torn || len(rep.Warnings) != 0 {
				t.Fatalf("recovery torn=%v warnings %q", rep.Torn, rep.Warnings)
			}
			if (name == "snapshot") != (rep.SnapshotLSN != 0) {
				t.Errorf("recovered from snapshot LSN %d", rep.SnapshotLSN)
			}
			tn, ok := reg.Get("p")
			if !ok {
				t.Fatal("tenant not recovered")
			}
			sameTenant(t, tn, ref)

			// Append batch records after the per-report ones, kill, and
			// recover the mixed log.
			for _, x := range []*stream.Tenant{tn, ref} {
				ingestBatches(t, x, reports[24:30], 4)
				if _, err := x.Rotate(); err != nil {
					t.Fatal(err)
				}
				ingestBatches(t, x, reports[30:], 5)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if n := recordTypes(t, dir); n[store.RecIngest] == 0 || n[store.RecIngestBatch] == 0 {
				t.Fatalf("mixed log record types %v", n)
			}
			reg2, _, rep2 := openDurable(t, dir, nil)
			if rep2.Torn || len(rep2.Warnings) != 0 {
				t.Fatalf("mixed recovery torn=%v warnings %q", rep2.Torn, rep2.Warnings)
			}
			tn2, ok := reg2.Get("p")
			if !ok {
				t.Fatal("tenant not recovered from the mixed log")
			}
			sameTenant(t, tn2, ref)
		})
	}
}

// TestRecoverSplitsBatchAtReplayPositions: a batch record covers one LSN
// per entry, so a snapshot's replay position can fall inside one. The
// store is assembled by hand: a snapshot cut after three reports, over a
// log holding those three and three more as one six-entry batch. Cut at
// acctFrom, the first three rebuild histograms only and the rest are
// charged too; cut at walStart (after a rotation), entries before it are
// skipped.
func TestRecoverSplitsBatchAtReplayPositions(t *testing.T) {
	sp := durableSpec("sliding")
	for _, at := range []string{"acctFrom", "walStart"} {
		t.Run(at, func(t *testing.T) {
			ref, err := stream.NewTenantSpec("t", sp)
			if err != nil {
				t.Fatal(err)
			}
			reports := workload(t, ref.Groups(), 2)

			// The snapshot, cut by a real collector.
			reg, st, _ := openDurable(t, t.TempDir(), nil)
			tn, err := reg.CreateSpec("t", sp)
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range []*stream.Tenant{tn, ref} {
				ingestBatches(t, x, reports[:3], 3)
				if at == "walStart" {
					if _, err := x.Rotate(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := reg.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			snapRec := recoveryOf(t, st.Dir())

			// The log under it: the same create, then one batch of six.
			dir := t.TempDir()
			st2, err := store.Open(dir, store.Options{Sync: store.SyncOS})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st2.Load(); err != nil {
				t.Fatal(err)
			}
			if _, err := st2.AppendTenantCreate("t", snapRec.Snapshot.Tenants[0].Spec); err != nil {
				t.Fatal(err)
			}
			six := make([]stream.BatchEntry, 6)
			for i, r := range reports[:6] {
				six[i] = stream.BatchEntry{User: r.user, Group: r.group, Values: r.vals}
			}
			if _, err := st2.AppendIngestBatch("t", six); err != nil {
				t.Fatal(err)
			}
			if err := st2.WriteSnapshot(snapRec.Snapshot); err != nil {
				t.Fatal(err)
			}
			if err := st2.Close(); err != nil {
				t.Fatal(err)
			}
			ts := snapRec.Snapshot.Tenants[0]
			pos := ts.AcctLSN
			if at == "walStart" {
				pos = ts.StartLSN
			}
			if pos <= 2 || pos >= 8 {
				t.Fatalf("%s = %d does not fall inside the batch at LSNs 2…7", at, pos)
			}
			// What the positions make of the batch: entries at LSN < pos
			// are in the snapshot, the rest were reported after it.
			ingestAll(t, ref, reports[pos-2:6])

			reg2, _, rep := openDurable(t, dir, nil)
			if len(rep.Warnings) != 0 {
				t.Fatalf("recovery warnings %q", rep.Warnings)
			}
			tn2, ok := reg2.Get("t")
			if !ok {
				t.Fatal("tenant not recovered")
			}
			sameTenant(t, tn2, ref)
		})
	}
}

// recoveryOf loads the store under dir and returns what it found.
func recoveryOf(t *testing.T, dir string) *store.Recovery {
	t.Helper()
	st, err := store.Open(dir, store.Options{Sync: store.SyncOS})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot == nil || len(rec.Snapshot.Tenants) != 1 {
		t.Fatal("no snapshot of the tenant")
	}
	return rec
}

// TestWALFrameCarriesEveryAcceptedEntry: whatever the engine accepts, a
// WAL frame can log — the largest group's report count fits one entry.
// (A user id longer than a frame carries is rejected before the WAL; the
// transport's TestReportRejectsOverlongUserID checks that over JSON.)
func TestWALFrameCarriesEveryAcceptedEntry(t *testing.T) {
	if wirebin.MaxEntryValues < 1<<(core.MaxGroups-1) {
		t.Fatalf("wirebin.MaxEntryValues = %d < 2^%d, the largest group's report count",
			wirebin.MaxEntryValues, core.MaxGroups-1)
	}
	reg, _, _ := openDurable(t, t.TempDir(), nil)
	defer reg.Close()
	tn, err := reg.CreateSpec("t", core.Spec{
		Task: core.TaskFrequency, K: 2, Eps: 1, Eps0: 1.0 / (1 << (core.MaxGroups - 1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	top := len(tn.Groups()) - 1
	vals := make([]float64, tn.Groups()[top].Reports)
	if len(vals) != 1<<(core.MaxGroups-1) {
		t.Fatalf("top group takes %d reports, want 2^%d", len(vals), core.MaxGroups-1)
	}
	if err := tn.Ingest("big", top, vals); err != nil {
		t.Fatalf("largest entry not logged: %v", err)
	}
}
