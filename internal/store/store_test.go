package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func openTest(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// appendIngest logs one report as a one-entry batch.
func appendIngest(s *Store, tenant, user string, group int, values []float64) (uint64, error) {
	return s.AppendIngestBatch(tenant, []IngestEntry{{User: user, Group: group, Values: values}})
}

func mustLoad(t *testing.T, s *Store) *Recovery {
	t.Helper()
	rec, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// appendMix writes one of each record type and returns the records.
func appendMix(t *testing.T, s *Store) []Record {
	t.Helper()
	want := []Record{
		{Type: RecTenantCreate, Tenant: "a", Spec: []byte(`{"task":"mean"}`)},
		{Type: RecJoin, Tenant: "a", User: "u0", Group: 1},
		{Type: RecIngest, Tenant: "a", User: "u0", Group: 1, Values: []float64{0.25, -0.5, 1e-9}},
		{Type: RecRotate, Tenant: "a", Seq: 7},
		{Type: RecMergeDelta, Tenant: "a", User: "node-1", Seq: 7, Spec: []byte("DAPD\x01\x00raw-frame-bytes")},
		{Type: RecTenantDelete, Tenant: "a"},
	}
	for i := range want {
		r := want[i]
		var lsn uint64
		var err error
		switch r.Type {
		case RecTenantCreate:
			lsn, err = s.AppendTenantCreate(r.Tenant, r.Spec)
		case RecJoin:
			lsn, err = s.AppendJoin(r.Tenant, r.User, r.Group)
		case RecIngest:
			lsn, err = appendIngest(s, r.Tenant, r.User, r.Group, r.Values)
		case RecRotate:
			lsn, err = s.AppendRotate(r.Tenant, r.Seq)
		case RecMergeDelta:
			lsn, err = s.AppendMergeDelta(r.Tenant, r.User, r.Seq, r.Spec)
		case RecTenantDelete:
			lsn, err = s.AppendTenantDelete(r.Tenant)
		}
		if err != nil {
			t.Fatal(err)
		}
		want[i].LSN = lsn
	}
	return want
}

func recordsEqual(a, b *Record) bool {
	if a.LSN != b.LSN || a.Type != b.Type || a.Tenant != b.Tenant ||
		a.User != b.User || a.Group != b.Group || a.Seq != b.Seq ||
		string(a.Spec) != string(b.Spec) || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			return false
		}
	}
	return true
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Sync: SyncOS})
	mustLoad(t, s)
	want := appendMix(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, Options{Sync: SyncOS})
	rec := mustLoad(t, s2)
	if rec.Torn {
		t.Fatalf("unexpected torn tail: %v", rec.Warnings)
	}
	if len(rec.Records) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), len(want))
	}
	for i := range want {
		if !recordsEqual(&rec.Records[i], &want[i]) {
			t.Errorf("record %d = %+v, want %+v", i, rec.Records[i], want[i])
		}
	}
	if got := s2.NextLSN(); got != want[len(want)-1].LSN+1 {
		t.Errorf("NextLSN = %d, want %d", got, want[len(want)-1].LSN+1)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Sync: SyncOS})
	mustLoad(t, s)
	want := appendMix(t, s)
	s.Close()

	// Tear the last few bytes off the segment: the final record must be
	// dropped and the file truncated to the preceding intact record.
	seg := segPath(dir, 1)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, Options{Sync: SyncOS})
	rec := mustLoad(t, s2)
	if !rec.Torn {
		t.Fatal("torn tail not detected")
	}
	if len(rec.Records) != len(want)-1 {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), len(want)-1)
	}
	// Appends continue after the truncation point and survive another
	// recovery.
	if _, err := s2.AppendRotate("a", 8); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := openTest(t, dir, Options{Sync: SyncOS})
	rec3 := mustLoad(t, s3)
	if rec3.Torn {
		t.Fatalf("tail torn after truncation+append: %v", rec3.Warnings)
	}
	last := rec3.Records[len(rec3.Records)-1]
	if last.Type != RecRotate || last.Seq != 8 {
		t.Fatalf("last record = %+v, want the post-truncation rotate", last)
	}
}

func TestWALCorruptMiddleRecordDropsOnlyIt(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Sync: SyncOS, MaxSegmentBytes: 1})
	mustLoad(t, s)
	// Tiny MaxSegmentBytes: every record rolls into its own segment.
	want := appendMix(t, s)
	s.Close()

	// Corrupt a byte in the middle segment's payload; records in later
	// segments must still replay.
	names, _ := os.ReadDir(dir)
	var segs []string
	for _, e := range names {
		if strings.HasPrefix(e.Name(), "wal-") {
			segs = append(segs, filepath.Join(dir, e.Name()))
		}
	}
	if len(segs) < 3 {
		t.Fatalf("expected one segment per record, got %d", len(segs))
	}
	mid := segs[len(segs)/2]
	data, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(mid, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, Options{Sync: SyncOS})
	rec := mustLoad(t, s2)
	if !rec.Torn {
		t.Fatal("corruption not detected")
	}
	if len(rec.Records) != len(want)-1 {
		t.Fatalf("recovered %d records, want %d (only the corrupt one dropped)", len(rec.Records), len(want)-1)
	}
	last := rec.Records[len(rec.Records)-1]
	if !recordsEqual(&last, &want[len(want)-1]) {
		t.Errorf("last record = %+v, want %+v", last, want[len(want)-1])
	}
}

func TestSnapshotRoundTripAndFallback(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Sync: SyncOS, KeepSnapshots: 3})
	mustLoad(t, s)
	appendMix(t, s)
	snap1 := &Snapshot{LSN: 3, Tenants: []TenantSnap{{
		Name: "a", Spec: []byte(`{"task":"mean"}`), Seq: 1, StartLSN: 2, AcctLSN: 3, Joined: 4,
		Epochs: []EpochSnap{{
			Counts: [][]float64{{1, 2, 0}, {0, 5}},
			Sums:   []float64{0.5, -1.25},
			Ns:     []float64{3, 5},
		}},
		Spend: map[string]float64{"u0": 0.75, "u1": 1},
		Users: map[string]int{"u0": 0, "u1": 1},
	}}}
	if err := s.WriteSnapshot(snap1); err != nil {
		t.Fatal(err)
	}
	snap2 := &Snapshot{LSN: 5, Tenants: snap1.Tenants}
	if err := s.WriteSnapshot(snap2); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Newest snapshot wins when intact.
	s2 := openTest(t, dir, Options{Sync: SyncOS})
	rec := mustLoad(t, s2)
	if rec.Snapshot == nil || rec.Snapshot.LSN != 5 {
		t.Fatalf("recovered snapshot %+v, want LSN 5", rec.Snapshot)
	}
	ts := rec.Snapshot.Tenants[0]
	if ts.Name != "a" || ts.Joined != 4 || ts.Spend["u0"] != 0.75 || ts.Users["u1"] != 1 {
		t.Fatalf("tenant snap mismatch: %+v", ts)
	}
	if ts.Epochs[0].Counts[1][1] != 5 || ts.Epochs[0].Sums[1] != -1.25 {
		t.Fatalf("epoch snap mismatch: %+v", ts.Epochs[0])
	}
	s2.Close()

	// Corrupt the newest snapshot: recovery falls back to the previous.
	data, err := os.ReadFile(snapPath(dir, 5))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(snapPath(dir, 5), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s3 := openTest(t, dir, Options{Sync: SyncOS})
	rec3 := mustLoad(t, s3)
	if rec3.Snapshot == nil || rec3.Snapshot.LSN != 3 {
		t.Fatalf("fallback snapshot %+v, want LSN 3", rec3.Snapshot)
	}
	if len(rec3.Warnings) == 0 {
		t.Error("expected a warning about the corrupt snapshot")
	}
}

func TestSnapshotGC(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Sync: SyncOS, MaxSegmentBytes: 64, KeepSnapshots: 2})
	mustLoad(t, s)
	for i := 0; i < 8; i++ {
		if _, err := appendIngest(s, "a", "u", 0, []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Everything up to LSN 9 is sealed state: all segments but the live
	// one are garbage.
	for _, lsn := range []uint64{3, 6, 9} {
		if err := s.WriteSnapshot(&Snapshot{LSN: lsn, Tenants: []TenantSnap{{Name: "a", StartLSN: lsn}}}); err != nil {
			t.Fatal(err)
		}
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var snaps, segs int
	for _, e := range names {
		if strings.HasPrefix(e.Name(), "snap-") {
			snaps++
		}
		if strings.HasPrefix(e.Name(), "wal-") {
			segs++
		}
	}
	if snaps != 2 {
		t.Errorf("retained %d snapshots, want 2", snaps)
	}
	h := s.Health()
	if h.Segments != segs {
		t.Errorf("health says %d segments, dir has %d", h.Segments, segs)
	}
	if segs > 2 {
		t.Errorf("GC left %d segments, want ≤2", segs)
	}
	// Everything still loads after GC.
	s.Close()
	s2 := openTest(t, dir, Options{Sync: SyncOS})
	rec := mustLoad(t, s2)
	if rec.Snapshot == nil || rec.Snapshot.LSN != 9 {
		t.Fatalf("post-GC snapshot %+v, want LSN 9", rec.Snapshot)
	}
}

func TestFlakyWriteErrorDegradesAndHeals(t *testing.T) {
	dir := t.TempDir()
	flaky := NewFlaky(nil)
	s := openTest(t, dir, Options{Sync: SyncOS, FS: flaky})
	mustLoad(t, s)
	if _, err := appendIngest(s, "a", "u0", 0, []float64{1}); err != nil {
		t.Fatal(err)
	}
	flaky.FailWrites(1, false, false)
	if _, err := appendIngest(s, "a", "u1", 0, []float64{2}); err == nil {
		t.Fatal("injected write error not surfaced")
	}
	if h := s.Health(); h.Healthy || h.LastErr == "" {
		t.Fatalf("store should be unhealthy after injected error: %+v", h)
	}
	// The next append self-heals into a fresh segment.
	lsn, err := appendIngest(s, "a", "u2", 0, []float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if h := s.Health(); !h.Healthy {
		t.Fatalf("store should be healthy after successful append: %+v", h)
	}
	s.Close()

	s2 := openTest(t, dir, Options{Sync: SyncOS})
	rec := mustLoad(t, s2)
	var users []string
	for _, r := range rec.Records {
		users = append(users, r.User)
	}
	if len(rec.Records) != 2 || users[0] != "u0" || users[1] != "u2" {
		t.Fatalf("recovered users %v, want [u0 u2] (failed append absent)", users)
	}
	if rec.Records[1].LSN != lsn {
		t.Errorf("surviving record LSN %d, want %d", rec.Records[1].LSN, lsn)
	}
}

func TestFlakyTornWriteTruncates(t *testing.T) {
	dir := t.TempDir()
	flaky := NewFlaky(nil)
	s := openTest(t, dir, Options{Sync: SyncOS, FS: flaky})
	mustLoad(t, s)
	if _, err := appendIngest(s, "a", "u0", 0, []float64{1}); err != nil {
		t.Fatal(err)
	}
	flaky.FailWrites(1, true, false)
	if _, err := appendIngest(s, "a", "u1", 0, []float64{2}); err == nil {
		t.Fatal("torn write error not surfaced")
	}
	// Crash here: the store survived the failed write, so it already cut
	// the torn half-record off the segment — recovery finds a clean tail
	// and only the intact record.
	s.Close()
	s2 := openTest(t, dir, Options{Sync: SyncOS})
	rec := mustLoad(t, s2)
	if rec.Torn {
		t.Fatalf("failed write's torn bytes not cleaned up at failure time: %v", rec.Warnings)
	}
	if len(rec.Records) != 1 || rec.Records[0].User != "u0" {
		t.Fatalf("recovered %+v, want only u0's record", rec.Records)
	}
}

// TestFailedBatchLeavesNoPartialFrames: a torn group-commit write can
// land a CRC-intact prefix of the batch's frames. Every caller of the
// batch was told it failed (and refunded), so recovery must not replay
// any of them — the store truncates the segment back to its pre-batch
// size when the write fails.
func TestFailedBatchLeavesNoPartialFrames(t *testing.T) {
	dir := t.TempDir()
	flaky := NewFlaky(nil)
	s := openTest(t, dir, Options{Sync: SyncOS, FS: flaky})
	mustLoad(t, s)
	if _, err := appendIngest(s, "a", "u0", 0, []float64{1}); err != nil {
		t.Fatal(err)
	}
	// A three-frame batch whose write lands its first half: without the
	// pre-batch truncate, the leading frame survives CRC-intact and would
	// replay records the callers rolled back.
	flaky.FailWrites(1, true, false)
	entries := []IngestEntry{
		{User: "u1", Group: 0, Values: []float64{1, 2, 3}},
		{User: "u2", Group: 0, Values: []float64{4, 5, 6}},
		{User: "u3", Group: 0, Values: []float64{7, 8, 9}},
	}
	if _, err := s.AppendIngestBatch("a", entries); err == nil {
		t.Fatal("injected torn batch write not surfaced")
	}
	s.Close()
	s2 := openTest(t, dir, Options{Sync: SyncOS})
	rec := mustLoad(t, s2)
	if rec.Torn {
		t.Fatalf("failed batch's torn bytes not cleaned up at failure time: %v", rec.Warnings)
	}
	if len(rec.Records) != 1 || rec.Records[0].User != "u0" {
		t.Fatalf("recovered %+v, want only u0's record (no frame of the failed batch)", rec.Records)
	}
}

// TestTornHeaderSegmentRemovedOnLoad: a segment whose header never fully
// landed (crash mid-roll) carries nothing and must be removed outright.
// Leaving a zero-byte entry in the segment list would collide with the
// next roll at the same firstLSN — two entries sharing one path — and
// snapshot GC would then unlink the ACTIVE segment's file, silently
// losing every later acked record.
func TestTornHeaderSegmentRemovedOnLoad(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Sync: SyncOS})
	mustLoad(t, s)
	appendMix(t, s)
	next := s.NextLSN()
	s.Close()
	// Crash mid-roll: the next segment's header is half-written.
	torn := segPath(dir, next)
	if err := os.WriteFile(torn, []byte(walMagic[:3]), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, Options{Sync: SyncOS})
	rec := mustLoad(t, s2)
	if !rec.Torn {
		t.Fatal("torn segment header not detected")
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatalf("torn-header segment not removed from disk (stat err %v)", err)
	}
	// The next append re-creates the same firstLSN path fresh; a snapshot
	// covering everything then garbage-collects old segments. Before the
	// fix the duplicate segs entries made this GC unlink the live segment.
	lsn, err := s2.AppendRotate("a", 8)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != next {
		t.Fatalf("first post-recovery append got LSN %d, want %d", lsn, next)
	}
	snap := &Snapshot{LSN: s2.NextLSN(), Tenants: []TenantSnap{{Name: "a", StartLSN: s2.NextLSN()}}}
	if err := s2.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	after, err := s2.AppendRotate("a", 9)
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()

	// Everything appended after the GC must survive the next recovery —
	// it does not if GC removed the active segment's file.
	s3 := openTest(t, dir, Options{Sync: SyncOS})
	rec3 := mustLoad(t, s3)
	if rec3.Torn {
		t.Fatalf("unexpected torn tail after GC: %v", rec3.Warnings)
	}
	found := false
	for _, r := range rec3.Records {
		if r.LSN == after && r.Type == RecRotate && r.Seq == 9 {
			found = true
		}
	}
	if !found {
		t.Fatalf("record appended after GC lost (recovered %d records): live segment was unlinked", len(rec3.Records))
	}
}

// TestCloseWaitsForInflightFlush: waiters whose batch a leader is already
// writing at Close time must observe the flush's real outcome. Returning
// ErrClosed early would make callers refund charges for records that land
// durably and replay on recovery — a double-apply.
func TestCloseWaitsForInflightFlush(t *testing.T) {
	dir := t.TempDir()
	flaky := NewFlaky(nil)
	s := openTest(t, dir, Options{Sync: SyncOS, FS: flaky})
	mustLoad(t, s)
	if _, err := appendIngest(s, "a", "u0", 0, []float64{1}); err != nil {
		t.Fatal(err)
	}

	// Slow every write down, then line up: C leads a slow flush; A and B
	// enqueue onto the next batch while C is in flight; once C finishes,
	// one of A/B leads that batch's (slow) write and the other waits on
	// it. Close lands inside that second write. Flaky's write counter
	// (incremented before the injected latency) pins each phase: writes
	// so far are the segment header and u0's record, C is #3, the A/B
	// batch is #4.
	const lat = 300 * time.Millisecond
	waitWrites := func(n int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if w, _, _ := flaky.Stats(); w >= n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("write #%d never started", n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	flaky.Latency(lat)
	errc := make(chan error, 3)
	go func() {
		_, err := appendIngest(s, "a", "uc", 0, []float64{2})
		errc <- err
	}()
	waitWrites(3) // C is mid-write for the next ~lat
	go func() {
		_, err := appendIngest(s, "a", "ua", 0, []float64{3})
		errc <- err
	}()
	go func() {
		_, err := appendIngest(s, "a", "ub", 0, []float64{4})
		errc <- err
	}()
	time.Sleep(lat / 4) // both enqueue on the pending batch while C sleeps
	waitWrites(4)       // the A/B batch's write began; it sleeps ~lat more
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := <-errc; err != nil {
			t.Errorf("append during close returned %v; its record is durable", err)
		}
	}

	s2 := openTest(t, dir, Options{Sync: SyncOS})
	rec := mustLoad(t, s2)
	users := map[string]bool{}
	for _, r := range rec.Records {
		users[r.User] = true
	}
	for _, u := range []string{"u0", "uc", "ua", "ub"} {
		if !users[u] {
			t.Errorf("record %s lost across close", u)
		}
	}
}

func TestFlakySnapshotFailureLeavesPrevious(t *testing.T) {
	dir := t.TempDir()
	flaky := NewFlaky(nil)
	s := openTest(t, dir, Options{Sync: SyncOS, FS: flaky})
	mustLoad(t, s)
	appendMix(t, s)
	good := &Snapshot{LSN: 2, Tenants: []TenantSnap{{Name: "a", StartLSN: 2}}}
	if err := s.WriteSnapshot(good); err != nil {
		t.Fatal(err)
	}
	// Fail mid-snapshot-write: the temp file dies before the rename, so
	// the published snapshot is untouched.
	flaky.FailWrites(1, true, false)
	if err := s.WriteSnapshot(&Snapshot{LSN: 4, Tenants: []TenantSnap{{Name: "a", StartLSN: 4}}}); err == nil {
		t.Fatal("injected snapshot failure not surfaced")
	}
	s.Close()
	s2 := openTest(t, dir, Options{Sync: SyncOS})
	rec := mustLoad(t, s2)
	if rec.Snapshot == nil || rec.Snapshot.LSN != 2 {
		t.Fatalf("recovered snapshot %+v, want the LSN-2 one", rec.Snapshot)
	}
}

func TestSyncAlwaysAndIntervalPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval} {
		dir := t.TempDir()
		flaky := NewFlaky(nil)
		s := openTest(t, dir, Options{Sync: pol, SyncEvery: time.Millisecond, FS: flaky})
		mustLoad(t, s)
		if _, err := appendIngest(s, "a", "u", 0, []float64{1}); err != nil {
			t.Fatal(err)
		}
		if pol == SyncInterval {
			deadline := time.Now().Add(time.Second)
			for {
				if _, syncs, _ := flaky.Stats(); syncs > 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("interval policy never synced")
				}
				time.Sleep(time.Millisecond)
			}
		} else if _, syncs, _ := flaky.Stats(); syncs == 0 {
			t.Fatal("always policy did not sync on append")
		}
		s.Close()
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"", SyncInterval, true}, {"interval", SyncInterval, true},
		{"always", SyncAlways, true}, {"os", SyncOS, true}, {"never", SyncOS, true},
		{"bogus", 0, false},
	} {
		got, err := ParseSyncPolicy(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v; want %v ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	if SyncAlways.String() != "always" || SyncInterval.String() != "interval" || SyncOS.String() != "os" {
		t.Error("SyncPolicy.String mismatch")
	}
}

func TestFlakyLatency(t *testing.T) {
	dir := t.TempDir()
	flaky := NewFlaky(nil)
	flaky.Latency(20 * time.Millisecond)
	s := openTest(t, dir, Options{Sync: SyncOS, FS: flaky})
	mustLoad(t, s)
	start := time.Now()
	if _, err := appendIngest(s, "a", "u", 0, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("append took %v, want ≥20ms of injected latency", d)
	}
}
