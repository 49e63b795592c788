package stream_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ldp/krr"
	"repro/internal/ldp/pm"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/stream"
)

// durableSpec is the task spec the crash tests run: warm start off so
// every estimate is a pure function of the window histograms — the
// precondition for the bit-identity assertions below.
func durableSpec(window string) core.Spec {
	sp := core.Spec{
		Task: core.TaskMean, Eps: 1, Eps0: 0.25,
		Scheme: core.SchemeEMF.String(), EMFMaxIter: 40,
		Serve: &core.ServeSpec{Buckets: 16, Shards: 4, Window: window, Span: 2},
	}
	return sp
}

// report is one pre-generated ingest request.
type report struct {
	user  string
	group int
	vals  []float64
}

// workload deterministically generates n users per group, each reporting
// the exact number of perturbed values their group demands. The fixed
// seed makes reference and crashed runs feed identical floats.
func workload(t *testing.T, groups []core.Group, n int) []report {
	t.Helper()
	r := rng.New(42)
	mechs := make([]*pm.Mechanism, len(groups))
	for g := range groups {
		m, err := pm.New(groups[g].Eps)
		if err != nil {
			t.Fatal(err)
		}
		mechs[g] = m
	}
	var out []report
	for i := 0; i < n; i++ {
		for g := range groups {
			vals := make([]float64, groups[g].Reports)
			for k := range vals {
				vals[k] = mechs[g].Perturb(r, 0.2)
			}
			out = append(out, report{user: "u" + itoa(i) + "g" + itoa(g), group: g, vals: vals})
		}
	}
	return out
}

// openDurable opens a store over dir (wrapped in flaky when given) and
// recovers a registry from it.
func openDurable(t *testing.T, dir string, flaky *store.Flaky) (*stream.Registry, *store.Store, *stream.RecoveryReport) {
	t.Helper()
	opts := store.Options{Sync: store.SyncOS}
	if flaky != nil {
		opts.FS = flaky
	}
	st, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	reg, rep, err := stream.Recover(st)
	if err != nil {
		t.Fatal(err)
	}
	return reg, st, rep
}

func ingestAll(t *testing.T, tn *stream.Tenant, reports []report) {
	t.Helper()
	for _, r := range reports {
		if err := tn.Ingest(r.user, r.group, r.vals); err != nil {
			t.Fatalf("ingest %s: %v", r.user, err)
		}
	}
}

// tearNewestSegment appends a few garbage bytes (shorter than a frame
// header) to the newest WAL segment — the torn tail a kill -9 mid-write
// leaves behind.
func tearNewestSegment(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var newest string
	for _, e := range ents { // ReadDir sorts, so the last wal-* wins
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
			newest = filepath.Join(dir, e.Name())
		}
	}
	if newest == "" {
		t.Fatal("no WAL segment to tear")
	}
	f, err := os.OpenFile(newest, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryMatrix is the fault-injection matrix from the issue:
// kill the collector at {mid-ingest, mid-rotation, mid-snapshot, torn WAL
// tail} × {tumbling, sliding} and assert that (a) recovered estimates are
// bit-for-bit identical to an uninterrupted reference run over the same
// reports, and (b) recorded ε spend never decreases across the crash.
// "Kill" means abandoning registry and store without any shutdown
// courtesy — no final snapshot, no WAL close — exactly what kill -9
// leaves behind (every accepted record is already written to the kernel).
func TestCrashRecoveryMatrix(t *testing.T) {
	const users = 16
	for _, mode := range []string{"tumbling", "sliding"} {
		for _, point := range []string{"mid-ingest", "mid-rotation", "mid-snapshot", "torn-tail"} {
			t.Run(mode+"/"+point, func(t *testing.T) {
				sp := durableSpec(mode)

				// Reference: the full workload, uninterrupted, on an
				// ephemeral tenant. Rotation points match the crashed run.
				ref, err := stream.NewTenantSpec("t", sp)
				if err != nil {
					t.Fatal(err)
				}
				reports := workload(t, ref.Groups(), users)
				half, threeQ := len(reports)/2, 3*len(reports)/4
				ingestAll(t, ref, reports[:half])
				if _, err := ref.Rotate(); err != nil {
					t.Fatal(err)
				}
				ingestAll(t, ref, reports[half:threeQ])
				ingestAll(t, ref, reports[threeQ:])
				refSnap, err := ref.Rotate()
				if err != nil {
					t.Fatal(err)
				}

				// Crashed run: same workload against a durable tenant,
				// killed at the scenario's point and recovered.
				dir := t.TempDir()
				flaky := store.NewFlaky(nil)
				reg, _, _ := openDurable(t, dir, flaky)
				tn, err := reg.CreateSpec("t", sp)
				if err != nil {
					t.Fatal(err)
				}
				ingestAll(t, tn, reports[:half])
				if _, err := tn.Rotate(); err != nil {
					t.Fatal(err)
				}
				switch point {
				case "mid-ingest":
					ingestAll(t, tn, reports[half:threeQ])
				case "mid-rotation":
					// The kill lands right after the rotation above became
					// durable: the live epoch is empty, the seal is only in
					// the WAL's rotate record.
				case "mid-snapshot":
					// A good snapshot exists; the one cut at the kill point
					// dies mid-write (torn temp file). Recovery must fall
					// back to the good snapshot plus the WAL tail.
					if err := reg.Snapshot(); err != nil {
						t.Fatal(err)
					}
					ingestAll(t, tn, reports[half:threeQ])
					flaky.FailWrites(1, true, false)
					if err := reg.Snapshot(); err == nil {
						t.Fatal("injected snapshot fault not surfaced")
					}
				case "torn-tail":
					ingestAll(t, tn, reports[half:threeQ])
					// One extra user's append dies half-written: the charge
					// is refunded, the request is rejected, and the store
					// repairs its own tail in place (truncating the failed
					// batch's bytes) since the process survived the fault.
					flaky.FailWrites(1, true, false)
					extra := make([]float64, tn.Groups()[0].Reports)
					if err := tn.Ingest("torn-extra", 0, extra); err == nil {
						t.Fatal("torn append did not reject the request")
					}
					if got := tn.Accountant().Spent("torn-extra"); got != 0 {
						t.Fatalf("rejected request left %g spend", got)
					}
				}
				spentBefore := tn.Accountant().TotalSpent()
				if point == "torn-tail" {
					// kill -9 mid-write leaves torn bytes the dead process
					// never got to repair — tear the newest segment directly;
					// recovery must truncate them.
					tearNewestSegment(t, dir)
				}

				// Kill. Recover from the same dir with a fresh store.
				reg2, _, rep := openDurable(t, dir, nil)
				tn2, ok := reg2.Get("t")
				if !ok {
					t.Fatal("tenant lost across crash")
				}
				if (point == "torn-tail") != rep.Torn {
					t.Errorf("recovery torn=%v at point %s", rep.Torn, point)
				}

				// Budget monotonicity: recovered spend covers every acked
				// charge.
				if got := tn2.Accountant().TotalSpent(); got < spentBefore {
					t.Errorf("recovered spend %g < pre-crash %g", got, spentBefore)
				}

				// Finish the workload and compare the final estimate
				// bit-for-bit against the uninterrupted reference.
				switch point {
				case "mid-ingest", "mid-snapshot", "torn-tail":
					ingestAll(t, tn2, reports[threeQ:])
				case "mid-rotation":
					ingestAll(t, tn2, reports[half:threeQ])
					ingestAll(t, tn2, reports[threeQ:])
				}
				gotSnap, err := tn2.Rotate()
				if err != nil {
					t.Fatal(err)
				}
				if gotSnap.Epoch != refSnap.Epoch {
					t.Fatalf("epoch %d after recovery, reference %d", gotSnap.Epoch, refSnap.Epoch)
				}
				if math.Float64bits(gotSnap.Reports) != math.Float64bits(refSnap.Reports) {
					t.Fatalf("window reports %v, reference %v", gotSnap.Reports, refSnap.Reports)
				}
				if !reflect.DeepEqual(gotSnap.Result, refSnap.Result) {
					t.Errorf("recovered estimate differs from uninterrupted reference\n got: %+v\nwant: %+v",
						gotSnap.Result, refSnap.Result)
				}
				// Per-user ledgers match bitwise too.
				for _, r := range []report{reports[0], reports[len(reports)-1]} {
					got := tn2.Accountant().Spent(r.user)
					want := ref.Accountant().Spent(r.user)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("user %s spend %v, reference %v", r.user, got, want)
					}
				}
			})
		}
	}
}

// TestRecoverAfterCleanShutdown: Close drains a final snapshot, so a
// restart recovers everything — tenants, sealed epochs, cached estimate,
// ledger — with zero WAL replay needed beyond the snapshot.
func TestRecoverAfterCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	sp := durableSpec("sliding")
	reg, st, _ := openDurable(t, dir, nil)
	tn, err := reg.CreateSpec("t", sp)
	if err != nil {
		t.Fatal(err)
	}
	reports := workload(t, tn.Groups(), 8)
	ingestAll(t, tn, reports)
	want, err := tn.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	reg.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	reg2, _, rep := openDurable(t, dir, nil)
	if rep.SnapshotLSN == 0 {
		t.Error("clean shutdown did not leave a snapshot")
	}
	tn2, ok := reg2.Get("t")
	if !ok {
		t.Fatal("tenant lost across clean restart")
	}
	got, err := tn2.Estimate(false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Errorf("cached estimate after restart differs:\n got %+v\nwant %+v", got.Result, want.Result)
	}
	if got := tn2.Accountant().TotalSpent(); got != tn.Accountant().TotalSpent() {
		t.Errorf("ledger changed across clean restart: %g vs %g", got, tn.Accountant().TotalSpent())
	}
}

// TestRecoverKeepsReportOfReboundUser: Join hands out predictable ids and
// overwrites the binding, so a user who reported under a self-chosen id can
// be rebound to another group afterwards. A snapshot then carries the new
// binding while the WAL still holds the admitted report for the old one;
// replay must apply it (its charge is in the snapshot ledger) rather than
// reject it against the live binding.
func TestRecoverKeepsReportOfReboundUser(t *testing.T) {
	dir := t.TempDir()
	reg, _, _ := openDurable(t, dir, nil)
	tn, err := reg.CreateSpec("t", durableSpec("tumbling"))
	if err != nil {
		t.Fatal(err)
	}
	last := len(tn.Groups()) - 1
	if err := tn.Ingest("u000000", last, []float64{0.25}); err != nil {
		t.Fatal(err)
	}
	if id, g := tn.Join(); id != "u000000" || g != tn.Groups()[0] {
		t.Fatalf("Join = %s in group %+v, want u000000 rebound to group 0", id, g)
	}
	if err := reg.Snapshot(); err != nil {
		t.Fatal(err)
	}

	reg2, _, rep := openDurable(t, dir, nil)
	if len(rep.Warnings) != 0 {
		t.Errorf("recovery warnings: %q", rep.Warnings)
	}
	tn2, ok := reg2.Get("t")
	if !ok {
		t.Fatal("tenant lost across crash")
	}
	if got, want := tn2.Status().GroupReports, tn.Status().GroupReports; !reflect.DeepEqual(got, want) {
		t.Errorf("recovered group reports %v, live had %v", got, want)
	}
	if got, want := tn2.Accountant().Export(), tn.Accountant().Export(); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered ledger %v, live had %v", got, want)
	}
}

// TestRecoverSkipsJoinOutsideGroups: the WAL stores a join's group as a
// plain number. Replay must not bind a user to a group the tenant does not
// have — nor to one the per-user table cannot hold — but report the record
// and go on with the rest of the log.
func TestRecoverSkipsJoinOutsideGroups(t *testing.T) {
	dir := t.TempDir()
	reg, st, _ := openDurable(t, dir, nil)
	tn, err := reg.CreateSpec("t", durableSpec("tumbling"))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []int{len(tn.Groups()), 200, 1 << 40} {
		if _, err := st.AppendJoin("t", "mallory"+itoa(g), g); err != nil {
			t.Fatal(err)
		}
	}
	id, _ := tn.Join()

	reg2, _, rep := openDurable(t, dir, nil)
	if len(rep.Warnings) != 3 {
		t.Errorf("recovery warnings %q, want one per out-of-range join", rep.Warnings)
	}
	tn2, ok := reg2.Get("t")
	if !ok {
		t.Fatal("tenant lost across crash")
	}
	if got := tn2.Accountant().Bindings(); len(got) != 1 || got[id] != 0 {
		t.Errorf("recovered bindings %v, want only %s→0", got, id)
	}
}

// TestDurableTenantLifecycle: creations and deletions survive restarts.
func TestDurableTenantLifecycle(t *testing.T) {
	dir := t.TempDir()
	reg, _, _ := openDurable(t, dir, nil)
	if _, err := reg.CreateSpec("keep", durableSpec("tumbling")); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.CreateSpec("drop", durableSpec("tumbling")); err != nil {
		t.Fatal(err)
	}
	if !reg.Delete("drop") {
		t.Fatal("delete failed")
	}

	reg2, _, rep := openDurable(t, dir, nil)
	if _, ok := reg2.Get("keep"); !ok {
		t.Error("surviving tenant lost")
	}
	if _, ok := reg2.Get("drop"); ok {
		t.Error("deleted tenant resurrected")
	}
	if rep.Tenants != 1 {
		t.Errorf("recovered %d tenants, want 1", rep.Tenants)
	}
}

// TestRecoverFrequencySpecWithBuckets: older collectors kept serve.buckets
// in a frequency tenant's effective spec, although k-RR histograms always
// have k buckets, so their create records and snapshots carry it. Such a
// store — WAL only, or with a snapshot — must recover to the same counts,
// estimates and ledger, with the field gone from the recovered spec.
func TestRecoverFrequencySpecWithBuckets(t *testing.T) {
	// The effective spec such a collector logged, byte for byte.
	legacy := []byte(`{"task":"frequency","mechanism":"krr","scheme":"EMF","weights":"paper","eps":1,"eps0":0.5,"k":3,"emf_max_iter":40,"serve":{"buckets":12,"expected_users":4096,"shards":4,"window":"sliding","span":2}}`)
	var sp core.Spec
	if err := json.Unmarshal(legacy, &sp); err != nil {
		t.Fatal(err)
	}
	ref, err := stream.NewTenantSpec("f", sp)
	if err != nil {
		t.Fatal(err)
	}
	reports := freqWorkload(t, ref.Groups(), sp.K, 16)
	half := len(reports) / 2
	ingestAll(t, ref, reports[:half])
	if _, err := ref.Rotate(); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, ref, reports[half:])
	wantSpec, err := json.Marshal(ref.Spec())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(wantSpec, []byte("buckets")) {
		t.Fatalf("effective frequency spec keeps buckets: %s", wantSpec)
	}

	for _, tc := range []struct {
		name     string
		withSnap bool
	}{{"wal-only", false}, {"snapshot", true}} {
		withSnap := tc.withSnap
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := store.Open(dir, store.Options{Sync: store.SyncOS})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Load(); err != nil {
				t.Fatal(err)
			}
			if _, err := st.AppendTenantCreate("f", legacy); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			reg, st, _ := openDurable(t, dir, nil)
			tn, ok := reg.Get("f")
			if !ok {
				t.Fatal("tenant not recovered from its create record")
			}
			ingestAll(t, tn, reports[:half])
			if _, err := tn.Rotate(); err != nil {
				t.Fatal(err)
			}
			ingestAll(t, tn, reports[half:])
			if withSnap {
				// Shut down cleanly (which cuts a snapshot), then put the
				// older collector's spec back into that snapshot.
				reg.Close()
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				st, err := store.Open(dir, store.Options{Sync: store.SyncOS})
				if err != nil {
					t.Fatal(err)
				}
				rec, err := st.Load()
				if err != nil {
					t.Fatal(err)
				}
				if rec.Snapshot == nil || len(rec.Snapshot.Tenants) != 1 {
					t.Fatal("clean shutdown left no snapshot of the tenant")
				}
				rec.Snapshot.Tenants[0].Spec = legacy
				if err := st.WriteSnapshot(rec.Snapshot); err != nil {
					t.Fatal(err)
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
			} // else: crash, leaving the WAL alone

			reg2, _, rep := openDurable(t, dir, nil)
			if len(rep.Warnings) != 0 {
				t.Errorf("recovery warnings: %q", rep.Warnings)
			}
			if withSnap != (rep.SnapshotLSN != 0) {
				t.Errorf("recovered from snapshot LSN %d", rep.SnapshotLSN)
			}
			tn2, ok := reg2.Get("f")
			if !ok {
				t.Fatal("tenant lost across restart")
			}
			if got, _ := json.Marshal(tn2.Spec()); !bytes.Equal(got, wantSpec) {
				t.Errorf("recovered spec\n got %s\nwant %s", got, wantSpec)
			}
			if got, want := tn2.Status().GroupReports, ref.Status().GroupReports; !reflect.DeepEqual(got, want) {
				t.Errorf("recovered group reports %v, want %v", got, want)
			}
			if got, want := tn2.Accountant().Export(), ref.Accountant().Export(); !reflect.DeepEqual(got, want) {
				t.Errorf("recovered ledger %v, want %v", got, want)
			}
			for _, live := range []bool{false, true} {
				got, err := tn2.Estimate(live)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Estimate(live)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Result, want.Result) {
					t.Errorf("live=%v estimate differs:\n got %+v\nwant %+v", live, got.Result, want.Result)
				}
			}
		})
	}
}

// freqWorkload is workload's k-RR counterpart: n users per group, each
// reporting its group's number of perturbed categories.
func freqWorkload(t *testing.T, groups []core.Group, k, n int) []report {
	t.Helper()
	r := rng.New(43)
	mechs := make([]*krr.Mechanism, len(groups))
	for g := range groups {
		m, err := krr.New(groups[g].Eps, k)
		if err != nil {
			t.Fatal(err)
		}
		mechs[g] = m
	}
	var out []report
	for i := 0; i < n; i++ {
		for g := range groups {
			vals := make([]float64, groups[g].Reports)
			for j := range vals {
				vals[j] = float64(mechs[g].PerturbCat(r, (i+j)%k))
			}
			out = append(out, report{user: "u" + itoa(i) + "g" + itoa(g), group: g, vals: vals})
		}
	}
	return out
}

// TestIngestStoreDownRefunds: when every WAL append fails, ingest rejects
// with ErrStoreDown and the budget charge is rolled back; reads keep
// serving the last good epoch.
func TestIngestStoreDownRefunds(t *testing.T) {
	dir := t.TempDir()
	flaky := store.NewFlaky(nil)
	reg, _, _ := openDurable(t, dir, flaky)
	tn, err := reg.CreateSpec("t", durableSpec("tumbling"))
	if err != nil {
		t.Fatal(err)
	}
	reports := workload(t, tn.Groups(), 8)
	ingestAll(t, tn, reports)
	want, err := tn.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	spent := tn.Accountant().TotalSpent()

	flaky.FailWrites(1, false, true) // store down until Heal
	fresh := report{user: "late", group: 0, vals: make([]float64, tn.Groups()[0].Reports)}
	if err := tn.Ingest(fresh.user, fresh.group, fresh.vals); !errors.Is(err, stream.ErrStoreDown) {
		t.Fatalf("ingest with store down: %v, want ErrStoreDown", err)
	}
	if got := tn.Accountant().TotalSpent(); got != spent {
		t.Errorf("failed ingest changed total spend: %g vs %g", got, spent)
	}
	if _, err := tn.Rotate(); !errors.Is(err, stream.ErrStoreDown) {
		t.Fatalf("rotate with store down: %v, want ErrStoreDown", err)
	}
	got, err := tn.Estimate(false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Error("cached estimate changed while store was down")
	}

	flaky.Heal()
	if err := tn.Ingest(fresh.user, fresh.group, fresh.vals); err != nil {
		t.Fatalf("ingest after heal: %v", err)
	}
}

// TestConcurrentIngestRecoversBitIdentical: ingests racing from many
// goroutines — including users hashing to the same histogram stripe —
// must still recover bit-identically. The ingest path holds the stripe
// lock across WAL append + apply, so the live run's per-stripe float
// accumulation order equals LSN order, which is the order replay uses.
func TestConcurrentIngestRecoversBitIdentical(t *testing.T) {
	dir := t.TempDir()
	// A slow disk makes group-commit batches actually coalesce: while the
	// leader's write sleeps, more appenders pile into the pending batch, and
	// on flush they all wake together and race to apply — exactly the window
	// where an unserialized apply could land out of LSN order.
	flaky := store.NewFlaky(nil)
	flaky.Latency(500 * time.Microsecond)
	reg, _, _ := openDurable(t, dir, flaky)
	sp := durableSpec("tumbling")
	sp.Serve.Shards = 2 // few stripes: force same-stripe collisions
	tn, err := reg.CreateSpec("t", sp)
	if err != nil {
		t.Fatal(err)
	}
	reports := workload(t, tn.Groups(), 48)
	// Spread report magnitudes across ~32 binary decades (exact power-of-two
	// scaling keeps every value in the PM output domain). Summing mixed
	// magnitudes is order-sensitive in almost every permutation, so a single
	// same-stripe apply that lands out of LSN order flips the sum's low bits.
	for i, r := range reports {
		for k := range r.vals {
			r.vals[k] = math.Ldexp(r.vals[k], -((i + k) % 32))
		}
	}

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var batch []stream.BatchEntry
			for i := w; i < len(reports); i += workers {
				r := reports[i]
				if w%2 == 0 {
					// Even workers exercise the single-report path...
					if err := tn.Ingest(r.user, r.group, r.vals); err != nil {
						t.Errorf("ingest %s: %v", r.user, err)
					}
					continue
				}
				// ...odd workers the batched one, three reports at a time,
				// each batch closed by two entries that must be rejected: a
				// repeat of its first report (that user's budget is spent by
				// then) and an out-of-domain value from a user who never
				// reports otherwise. The WAL then holds the accepted subset
				// of a partially rejected batch, and replay must neither
				// apply nor charge the rest.
				batch = append(batch, stream.BatchEntry{User: r.user, Group: r.group, Values: r.vals})
				if len(batch) == 3 {
					batch = append(batch, batch[0],
						stream.BatchEntry{User: "stray" + itoa(i), Group: 0, Values: []float64{math.Inf(1)}})
					for j, err := range tn.IngestBatch(batch) {
						switch {
						case j < 3 && err != nil:
							t.Errorf("batch ingest %s: %v", batch[j].User, err)
						case j == 3 && !errors.Is(err, privacy.ErrBudgetExceeded):
							t.Errorf("repeated report of %s: %v, want ErrBudgetExceeded", batch[j].User, err)
						case j == 4 && !errors.Is(err, core.ErrDomain):
							t.Errorf("out-of-domain report: %v, want ErrDomain", err)
						}
					}
					batch = batch[:0]
				}
			}
			for j, err := range tn.IngestBatch(batch) {
				if err != nil {
					t.Errorf("batch ingest %s: %v", batch[j].User, err)
				}
			}
		}(w)
	}
	wg.Wait()
	want, err := tn.Rotate()
	if err != nil {
		t.Fatal(err)
	}

	// Kill (no shutdown courtesy) and recover; recovery re-estimates the
	// replayed window into the cache.
	reg2, _, _ := openDurable(t, dir, nil)
	tn2, ok := reg2.Get("t")
	if !ok {
		t.Fatal("tenant lost across crash")
	}
	got, err := tn2.Estimate(false)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Reports) != math.Float64bits(want.Reports) {
		t.Fatalf("window reports %v, reference %v", got.Reports, want.Reports)
	}
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Errorf("recovered estimate differs from the concurrent live run\n got: %+v\nwant: %+v",
			got.Result, want.Result)
	}
	if !reflect.DeepEqual(tn2.Accountant().Export(), tn.Accountant().Export()) {
		t.Error("recovered budget ledger differs from the concurrent live run")
	}
}
