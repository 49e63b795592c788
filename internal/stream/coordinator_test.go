package stream

import (
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ldp/pm"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/wirebin"
)

// coordSpec is the task spec the merge tests run: warm start off so
// estimates are pure functions of the window histograms, fixed bucket
// resolution and stripe count so every node and the coordinator agree
// on the histogram geometry regardless of per-node population.
func coordSpec() core.Spec {
	return core.Spec{
		Task: core.TaskMean, Eps: 1, Eps0: 0.25,
		Scheme: core.SchemeEMF.String(), EMFMaxIter: 40,
		Serve: &core.ServeSpec{Buckets: 16, Shards: 4, Window: "sliding", Span: 2},
	}
}

// synthDeltas builds nodes×epochs synthetic deltas with tn's geometry
// from a pinned PCG stream: positive integer counts (every group
// populated), matching report totals, arbitrary stripe sums and a small
// per-node ledger. Deterministic per seed.
func synthDeltas(tn *Tenant, nodes []string, epochs int, seed uint64) []*wirebin.Delta {
	r := rand.New(rand.NewPCG(0x9e3779b97f4a7c15, seed))
	var out []*wirebin.Delta
	for e := 1; e <= epochs; e++ {
		for _, n := range nodes {
			d := &wirebin.Delta{
				Node: n, Tenant: tn.name,
				Epoch: uint64(e), Seq: uint64(e),
				Counts:     make([][]float64, len(tn.groups)),
				Ns:         make([]float64, len(tn.groups)),
				StripeSums: make([][]float64, len(tn.groups)),
			}
			for g := range d.Counts {
				counts := make([]float64, tn.bkt[g])
				var total float64
				for b := range counts {
					counts[b] = float64(1 + r.IntN(9))
					total += counts[b]
				}
				d.Counts[g] = counts
				d.Ns[g] = total
				sums := make([]float64, tn.Shards())
				for s := range sums {
					sums[s] = r.Float64()*2 - 1
				}
				d.StripeSums[g] = sums
			}
			for j := 0; j < 1+r.IntN(4); j++ {
				d.Spend = append(d.Spend, wirebin.SpendEntry{
					User: n + "-u" + strconv.Itoa(j),
					Eps:  0.25 * float64(e),
				})
			}
			out = append(out, d)
		}
	}
	return out
}

// mergedState is a comparable cut of one tenant's merge-plane state.
type mergedState struct {
	published uint64
	degraded  bool
	pending   int
	window    [][][]uint64 // per epoch, per group: count bits ++ [sum, n] bits
	ledger    map[string]uint64
	result    *core.Result
}

func captureState(t *testing.T, c *Coordinator, tenant string) mergedState {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	ct, ok := c.tenants[tenant]
	if !ok {
		t.Fatalf("tenant %q missing", tenant)
	}
	st := mergedState{
		published: ct.published,
		degraded:  ct.degraded,
		pending:   len(ct.pending),
		ledger:    make(map[string]uint64, len(ct.ledger)),
	}
	for u, eps := range ct.ledger {
		st.ledger[u] = math.Float64bits(eps)
	}
	for i := range ct.window {
		eh := &ct.window[i]
		var groups [][]uint64
		for g := range eh.counts {
			var bits []uint64
			for _, cnt := range eh.counts[g] {
				bits = append(bits, math.Float64bits(cnt))
			}
			bits = append(bits, math.Float64bits(eh.sums[g]), math.Float64bits(eh.ns[g]))
			groups = append(groups, bits)
		}
		st.window = append(st.window, groups)
	}
	if ct.cached != nil {
		st.result = ct.cached.Result
	}
	return st
}

func newTestCoordinator(t *testing.T, nodes []string, st *store.Store) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(CoordinatorConfig{Nodes: nodes, Straggler: time.Hour, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddTenantSpec("t", coordSpec()); err != nil {
		t.Fatal(err)
	}
	return c
}

func applyAll(t *testing.T, c *Coordinator, deltas []*wirebin.Delta) {
	t.Helper()
	for _, d := range deltas {
		frame, err := wirebin.EncodeDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Apply(frame); err != nil {
			t.Fatalf("apply node %s epoch %d: %v", d.Node, d.Epoch, err)
		}
	}
}

// TestMergeCommutativity: applying the same delta set in arbitrary
// arrival orders yields bit-identical merge state — windows, ledgers
// and cached estimates.
func TestMergeCommutativity(t *testing.T) {
	nodes := []string{"a", "b", "c"}
	for _, seed := range []uint64{1, 2, 3} {
		ref := newTestCoordinator(t, nodes, nil)
		deltas := synthDeltas(ref.tenants["t"].t, nodes, 3, seed)
		applyAll(t, ref, deltas)
		want := captureState(t, ref, "t")
		if want.published != 3 || want.pending != 0 {
			t.Fatalf("seed %d: reference published %d with %d pending", seed, want.published, want.pending)
		}
		perm := rand.New(rand.NewPCG(seed, 99))
		for trial := 0; trial < 4; trial++ {
			shuffled := append([]*wirebin.Delta(nil), deltas...)
			perm.Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			c := newTestCoordinator(t, nodes, nil)
			applyAll(t, c, shuffled)
			if got := captureState(t, c, "t"); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d trial %d: merge state differs under reordering", seed, trial)
			}
		}
	}
}

// TestMergeAssociativity: grouping the stream into arbitrary batches —
// with straggler checks between batches — cannot change the fold.
func TestMergeAssociativity(t *testing.T) {
	nodes := []string{"a", "b", "c"}
	for _, seed := range []uint64{4, 5} {
		ref := newTestCoordinator(t, nodes, nil)
		deltas := synthDeltas(ref.tenants["t"].t, nodes, 4, seed)
		applyAll(t, ref, deltas)
		want := captureState(t, ref, "t")
		split := rand.New(rand.NewPCG(seed, 7))
		for trial := 0; trial < 4; trial++ {
			c := newTestCoordinator(t, nodes, nil)
			rest := deltas
			for len(rest) > 0 {
				n := 1 + split.IntN(len(rest))
				applyAll(t, c, rest[:n])
				rest = rest[n:]
				c.Tick() // straggler pass between batches must be a no-op here
			}
			if got := captureState(t, c, "t"); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d trial %d: merge state differs under batching", seed, trial)
			}
		}
	}
}

// TestMergeIdempotence: re-delivered deltas are acknowledged as
// duplicates (pre-publish) or stragglers (post-publish) and change
// nothing.
func TestMergeIdempotence(t *testing.T) {
	nodes := []string{"a", "b"}
	for _, seed := range []uint64{6, 7} {
		ref := newTestCoordinator(t, nodes, nil)
		deltas := synthDeltas(ref.tenants["t"].t, nodes, 3, seed)
		applyAll(t, ref, deltas)
		want := captureState(t, ref, "t")
		dup := rand.New(rand.NewPCG(seed, 13))
		c := newTestCoordinator(t, nodes, nil)
		for _, d := range deltas {
			frame, err := wirebin.EncodeDelta(d)
			if err != nil {
				t.Fatal(err)
			}
			for extra := 1 + dup.IntN(3); extra > 0; extra-- {
				res, err := c.Apply(frame)
				if err != nil {
					t.Fatal(err)
				}
				if res.Status == "" {
					t.Fatal("empty merge status")
				}
			}
		}
		if got := captureState(t, c, "t"); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: duplicates changed the merge state", seed)
		}
	}
}

// TestMergeStragglerQuorum: a missing node holds an epoch open until
// the straggler timeout, then a quorum publish flags it degraded; the
// straggler's late delta is dropped and counted.
func TestMergeStragglerQuorum(t *testing.T) {
	nodes := []string{"a", "b", "c"}
	c, err := NewCoordinator(CoordinatorConfig{Nodes: nodes, Quorum: 2, Straggler: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddTenantSpec("t", coordSpec()); err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	deltas := synthDeltas(c.tenants["t"].t, nodes, 1, 8)
	applyAll(t, c, deltas[:2]) // a and b report; c is the straggler
	if st := c.Status(); st.Tenants[0].Published != 0 || st.Tenants[0].Pending != 1 {
		t.Fatalf("published before quorum timeout: %+v", st.Tenants[0])
	}
	now = now.Add(30 * time.Second)
	c.Tick()
	if st := c.Status(); st.Tenants[0].Published != 0 {
		t.Fatal("published before the straggler timeout elapsed")
	}
	now = now.Add(31 * time.Second)
	c.Tick()
	st := c.Status()
	if st.Tenants[0].Published != 1 || !st.Tenants[0].Degraded || !st.Degraded {
		t.Fatalf("expected degraded quorum publish, got %+v", st.Tenants[0])
	}
	frame, err := wirebin.EncodeDelta(deltas[2])
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Apply(frame)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != "late" {
		t.Fatalf("straggler delta status %q, want late", res.Status)
	}
}

// --- realistic multi-node fixtures (seal-hook deltas from live tenants) ---

// partition deterministically generates a pinned workload, ingests it
// whole into a reference tenant and stripe-partitioned into n node
// tenants, and returns the reference plus each node's captured deltas
// per rotation round.
type partition struct {
	ref        *Tenant
	refSnaps   []*Snapshot          // reference estimate after each round's rotation
	refLedgers []map[string]float64 // reference budget ledger after each round
	nodes      []*Tenant
	ids        []string
	frames     [][][]byte // [round][nodeIdx] encoded delta
}

func buildPartition(t *testing.T, n, users, rounds int) *partition {
	t.Helper()
	sp := coordSpec()
	p := &partition{}
	var err error
	p.ref, err = NewTenantSpec("t", sp)
	if err != nil {
		t.Fatal(err)
	}
	captured := make([]*EpochDelta, n)
	for i := 0; i < n; i++ {
		id := "node-" + strconv.Itoa(i)
		p.ids = append(p.ids, id)
		tn, err := NewTenantSpec("t", sp)
		if err != nil {
			t.Fatal(err)
		}
		i := i
		tn.SetSealHook(func(d *EpochDelta) {
			d.Node = p.ids[i]
			captured[i] = d
		})
		p.nodes = append(p.nodes, tn)
	}
	r := rng.New(42)
	mechs := make([]*pm.Mechanism, len(p.ref.groups))
	for g := range mechs {
		m, err := pm.New(p.ref.groups[g].Eps)
		if err != nil {
			t.Fatal(err)
		}
		mechs[g] = m
	}
	shards := p.ref.Shards()
	for round := 0; round < rounds; round++ {
		for i := 0; i < users; i++ {
			for g := range p.ref.groups {
				// Round-unique reporters: the per-user budget cap is
				// Spec.Eps, which one report batch consumes entirely.
				user := "u" + strconv.Itoa(i) + "g" + strconv.Itoa(g) + "r" + strconv.Itoa(round)
				vals := make([]float64, p.ref.groups[g].Reports)
				for k := range vals {
					vals[k] = mechs[g].Perturb(r, 0.2)
				}
				if err := p.ref.Ingest(user, g, vals); err != nil {
					t.Fatal(err)
				}
				owner := StripeOf(user, shards) % n
				if err := p.nodes[owner].Ingest(user, g, vals); err != nil {
					t.Fatal(err)
				}
			}
		}
		var frames [][]byte
		for i, tn := range p.nodes {
			// Node estimate may fail (a node can own an empty group); only
			// the seal + hook matter here.
			_, _ = tn.Rotate()
			if captured[i] == nil {
				t.Fatalf("round %d: node %d seal hook did not fire", round, i)
			}
			frame, err := wirebin.EncodeDelta(captured[i])
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, frame)
			captured[i] = nil
		}
		p.frames = append(p.frames, frames)
		// The reference rotates lock-step with the nodes so its epochs
		// cover exactly the rounds the deltas do.
		snap, err := p.ref.Rotate()
		if err != nil {
			t.Fatal(err)
		}
		p.refSnaps = append(p.refSnaps, snap)
		p.refLedgers = append(p.refLedgers, p.ref.Accountant().Export())
	}
	return p
}

// checkEquivalent asserts the coordinator's merged estimate and ledger
// are bit-identical to the reference tenant's.
func checkEquivalent(t *testing.T, c *Coordinator, refSnap *Snapshot, want map[string]float64) {
	t.Helper()
	got, err := c.Estimate("t")
	if err != nil {
		t.Fatalf("merged estimate: %v", err)
	}
	if got.Epoch != refSnap.Epoch {
		t.Fatalf("merged epoch %d, reference %d", got.Epoch, refSnap.Epoch)
	}
	if math.Float64bits(got.Reports) != math.Float64bits(refSnap.Reports) {
		t.Fatalf("merged window reports %v, reference %v", got.Reports, refSnap.Reports)
	}
	if !reflect.DeepEqual(got.Result, refSnap.Result) {
		t.Fatalf("merged estimate differs from single-node reference\n got: %+v\nwant: %+v",
			got.Result, refSnap.Result)
	}
	ledger, err := c.Ledger("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(ledger) != len(want) {
		t.Fatalf("merged ledger has %d users, reference %d", len(ledger), len(want))
	}
	for u, eps := range want {
		if math.Float64bits(ledger[u]) != math.Float64bits(eps) {
			t.Fatalf("user %s merged spend %v, reference %v", u, ledger[u], eps)
		}
	}
}

// TestMergeEquivalenceStream: 3 node tenants with stripe-disjoint user
// partitions, deltas from the live seal hook — the coordinator's merged
// per-epoch estimates and budget ledger are bit-identical to one tenant
// ingesting the whole stream. The transport-level
// TestDistributedEquivalence covers the same invariant over HTTP.
func TestMergeEquivalenceStream(t *testing.T) {
	const rounds = 3
	p := buildPartition(t, 3, 12, rounds)
	c := newTestCoordinator(t, p.ids, nil)
	for round := 0; round < rounds; round++ {
		applyAll2(t, c, p.frames[round])
		checkEquivalent(t, c, p.refSnaps[round], p.refLedgers[round])
	}
}

func applyAll2(t *testing.T, c *Coordinator, frames [][]byte) {
	t.Helper()
	for _, frame := range frames {
		if _, err := c.Apply(frame); err != nil {
			t.Fatal(err)
		}
	}
}

// --- crash kill-points (run by make crash-test) ---

// tearNewestWAL appends garbage shorter than a frame header to the
// newest WAL segment — a kill -9 mid-write.
func tearNewestWAL(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var newest string
	for _, e := range ents { // ReadDir sorts; last wal-* wins
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

func openCoordStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{Sync: store.SyncOS})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func recoverCoordinator(t *testing.T, dir string, nodes []string) (*Coordinator, *RecoveryReport) {
	t.Helper()
	st := openCoordStore(t, dir)
	c, rep, err := RecoverCoordinator(CoordinatorConfig{
		Nodes: nodes, Straggler: time.Hour, Store: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, rep
}

// TestCoordinatorCrashMidMerge kills the coordinator after a partial
// epoch (2 of 3 nodes reported, nothing published) and recovers: the
// in-flight epoch is reconstructed delta-for-delta, and finishing the
// epoch after recovery publishes the same bits as the uncrashed run.
func TestCoordinatorCrashMidMerge(t *testing.T) {
	const rounds = 2
	p := buildPartition(t, 3, 10, rounds)
	// Uncrashed reference coordinator over the same frames.
	un := newTestCoordinator(t, p.ids, nil)
	applyAll2(t, un, p.frames[0])
	applyAll2(t, un, p.frames[1])
	want := captureState(t, un, "t")

	dir := t.TempDir()
	st := openCoordStore(t, dir)
	mustLoadEmpty(t, st)
	c1, err := NewCoordinator(CoordinatorConfig{Nodes: p.ids, Straggler: time.Hour, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.AddTenantSpec("t", coordSpec()); err != nil {
		t.Fatal(err)
	}
	applyAll2(t, c1, p.frames[0])                // epoch 1 publishes
	applyAll2(t, c1, p.frames[1][:2])            // epoch 2 in flight: kill here
	c2, rep := recoverCoordinator(t, dir, p.ids) // no courtesy shutdown
	if rep.Tenants != 1 {
		t.Fatalf("recovered %d tenants, want 1", rep.Tenants)
	}
	checkEquivalent(t, c2, p.refSnaps[0], p.refLedgers[0]) // epoch 1 re-published bit-identically
	applyAll2(t, c2, p.frames[1][2:])                      // straggler delta finishes epoch 2
	if got := captureState(t, c2, "t"); !reflect.DeepEqual(got, want) {
		t.Fatal("recovered merge state differs from the uncrashed run")
	}
	checkEquivalent(t, c2, p.refSnaps[1], p.refLedgers[1])
}

// TestCoordinatorCrashMidPublish kills the coordinator right after a
// full epoch published and recovers: replay re-publishes the epoch from
// the identical sorted fold — estimates, window and ledger all match
// the uncrashed coordinator bit-for-bit.
func TestCoordinatorCrashMidPublish(t *testing.T) {
	const rounds = 2
	p := buildPartition(t, 3, 10, rounds)
	un := newTestCoordinator(t, p.ids, nil)
	applyAll2(t, un, p.frames[0])
	want1 := captureState(t, un, "t")
	applyAll2(t, un, p.frames[1])
	want2 := captureState(t, un, "t")

	dir := t.TempDir()
	st := openCoordStore(t, dir)
	mustLoadEmpty(t, st)
	c1, err := NewCoordinator(CoordinatorConfig{Nodes: p.ids, Straggler: time.Hour, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.AddTenantSpec("t", coordSpec()); err != nil {
		t.Fatal(err)
	}
	applyAll2(t, c1, p.frames[0]) // publish, then crash immediately after

	c2, _ := recoverCoordinator(t, dir, p.ids)
	if got := captureState(t, c2, "t"); !reflect.DeepEqual(got, want1) {
		t.Fatal("state after crash-mid-publish recovery differs from uncrashed run")
	}
	checkEquivalent(t, c2, p.refSnaps[0], p.refLedgers[0])
	applyAll2(t, c2, p.frames[1])
	if got := captureState(t, c2, "t"); !reflect.DeepEqual(got, want2) {
		t.Fatal("post-recovery merging diverged from uncrashed run")
	}
	checkEquivalent(t, c2, p.refSnaps[1], p.refLedgers[1])
}

// TestCoordinatorTornDeltaRecord tears the WAL tail mid-record (the
// torn write a crash leaves) and recovers: the torn delta is truncated
// away, the intact prefix replays bit-identically, and re-delivering
// the lost delta (the node's retry) completes the epoch as if nothing
// happened.
func TestCoordinatorTornDeltaRecord(t *testing.T) {
	p := buildPartition(t, 3, 10, 1)
	dir := t.TempDir()
	st := openCoordStore(t, dir)
	mustLoadEmpty(t, st)
	c1, err := NewCoordinator(CoordinatorConfig{Nodes: p.ids, Straggler: time.Hour, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.AddTenantSpec("t", coordSpec()); err != nil {
		t.Fatal(err)
	}
	applyAll2(t, c1, p.frames[0][:2])
	tearNewestWAL(t, dir) // the third delta's append is torn mid-write

	c2, rep := recoverCoordinator(t, dir, p.ids)
	if !rep.Torn {
		t.Fatal("recovery did not report the torn tail")
	}
	st2 := c2.Status()
	if st2.Tenants[0].Published != 0 || st2.Tenants[0].Pending != 1 {
		t.Fatalf("unexpected state after torn-tail recovery: %+v", st2.Tenants[0])
	}
	// The node retries the un-acked delta; the epoch completes normally.
	applyAll2(t, c2, p.frames[0][2:])
	checkEquivalent(t, c2, p.refSnaps[0], p.refLedgers[0])
}

func mustLoadEmpty(t *testing.T, st *store.Store) {
	t.Helper()
	if _, err := st.Load(); err != nil {
		t.Fatal(err)
	}
}
