package transport

import (
	"context"
	"math"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ldp/pm"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/wirebin"
)

// distSpec pins the serving geometry (buckets, stripes) so every node
// and the coordinator agree on histogram shape regardless of per-node
// population, and turns warm starts off so estimates are pure functions
// of the window histograms.
func distSpec() core.Spec {
	return core.Spec{
		Task: core.TaskMean, Eps: 1, Eps0: 0.25,
		Scheme: core.SchemeEMF.String(), EMFMaxIter: 40,
		Serve: &core.ServeSpec{Buckets: 16, Shards: 4, Window: "sliding", Span: 2},
	}
}

// deltaPusher is a node's seal hook: it stamps the node id on each
// sealed delta and pushes the encoded frame to whichever coordinator is
// currently installed (swappable, so a test can kill and replace the
// coordinator mid-stream).
type deltaPusher struct {
	t    *testing.T
	node string
	dst  atomic.Pointer[Client]
}

func (p *deltaPusher) push(d *stream.EpochDelta) {
	d.Node = p.node
	frame, err := wirebin.EncodeDelta(d)
	if err != nil {
		p.t.Errorf("node %s: encode delta: %v", p.node, err)
		return
	}
	if _, err := p.dst.Load().PushDelta(context.Background(), frame); err != nil {
		p.t.Errorf("node %s: push delta: %v", p.node, err)
	}
}

// distNode is one collector node: an ephemeral server whose default
// tenant pushes sealed epoch deltas to the coordinator.
type distNode struct {
	srv    *Server
	client *Client
	pusher *deltaPusher
}

func newDistNode(t *testing.T, id string, coord *Client) *distNode {
	t.Helper()
	srv, err := NewServerOpts(distSpec(), ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	p := &deltaPusher{t: t, node: id}
	p.dst.Store(coord)
	srv.Registry().SetSealHook(p.push)
	return &distNode{srv: srv, client: NewClient(ts.URL, ts.Client()), pusher: p}
}

// newCoordServer wraps a coordinator in an HTTP server and returns a
// retrying client for it — the client nodes push through.
func newCoordServer(t *testing.T, co *stream.Coordinator) *Client {
	t.Helper()
	srv, err := NewServerOpts(distSpec(), ServerOptions{Coordinator: co})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, ts.Client())
	c.SetRetry(3, time.Second)
	return c
}

// TestDistributedEquivalence is the scale-out acceptance test: three
// node collectors and one coordinator on loopback HTTP, a pinned report
// stream partitioned across the nodes stripe-disjointly, and — epoch by
// epoch, including after a coordinator kill and WAL recovery — merged
// estimates and budget ledgers bit-identical to a single collector
// ingesting the whole stream.
func TestDistributedEquivalence(t *testing.T) {
	const (
		nodes  = 3
		users  = 12
		rounds = 3
	)
	nodeIDs := make([]string, nodes)
	for i := range nodeIDs {
		nodeIDs[i] = "node-" + strconv.Itoa(i)
	}

	// Reference: one collector sees the whole stream.
	refSrv, err := NewServerOpts(distSpec(), ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(refSrv.Close)
	refT, _ := refSrv.Registry().Get(DefaultTenant)

	// Durable coordinator: its WAL is what survives the kill below.
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Sync: store.SyncOS})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(); err != nil {
		t.Fatal(err)
	}
	co, err := stream.NewCoordinator(stream.CoordinatorConfig{
		Nodes: nodeIDs, Straggler: time.Hour, Store: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.AddTenantSpec(DefaultTenant, distSpec()); err != nil {
		t.Fatal(err)
	}
	coordClient := newCoordServer(t, co)

	cluster := make([]*distNode, nodes)
	for i := range cluster {
		cluster[i] = newDistNode(t, nodeIDs[i], coordClient)
	}

	ctx := context.Background()
	r := rng.New(42)
	refGroups := refT.Groups()
	mechs := make([]*pm.Mechanism, len(refGroups))
	for g := range mechs {
		m, err := pm.New(refGroups[g].Eps)
		if err != nil {
			t.Fatal(err)
		}
		mechs[g] = m
	}
	shards := refT.Shards()
	groups := len(refGroups)

	checkRound := func(round int, co *stream.Coordinator, coord *Client) {
		t.Helper()
		refSnap, err := refT.Rotate()
		if err != nil {
			t.Fatalf("round %d: reference rotate: %v", round, err)
		}
		got, err := coord.MergeEstimate(ctx, DefaultTenant)
		if err != nil {
			t.Fatalf("round %d: merged estimate: %v", round, err)
		}
		// The merged estimate, too, is addressed by tenant only.
		if _, err := coord.MergeEstimate(ctx, ""); err == nil {
			t.Fatalf("round %d: tenant-less merged estimate still served", round)
		}
		want := estimateResponse(refSnap)
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("round %d: merged estimate differs from single-collector reference\n got: %+v\nwant: %+v",
				round, *got, want)
		}
		ledger, err := co.Ledger(DefaultTenant)
		if err != nil {
			t.Fatalf("round %d: merged ledger: %v", round, err)
		}
		wantLedger := refT.Accountant().Export()
		if len(ledger) != len(wantLedger) {
			t.Fatalf("round %d: merged ledger has %d users, reference %d", round, len(ledger), len(wantLedger))
		}
		for u, eps := range wantLedger {
			if math.Float64bits(ledger[u]) != math.Float64bits(eps) {
				t.Fatalf("round %d: user %s merged spend %v, reference %v", round, u, ledger[u], eps)
			}
		}
	}

	ingestRound := func(round int) {
		t.Helper()
		for i := 0; i < users; i++ {
			for g := 0; g < groups; g++ {
				// Round-unique reporters: the per-user cap is Spec.Eps,
				// which one report batch consumes entirely.
				user := "u" + strconv.Itoa(i) + "g" + strconv.Itoa(g) + "r" + strconv.Itoa(round)
				vals := make([]float64, refGroups[g].Reports)
				for k := range vals {
					vals[k] = mechs[g].Perturb(r, 0.2)
				}
				if err := refT.Ingest(user, g, vals); err != nil {
					t.Fatal(err)
				}
				owner := stream.StripeOf(user, shards) % nodes
				if err := cluster[owner].client.Tenant(DefaultTenant).Report(ctx, user, g, vals); err != nil {
					t.Fatalf("round %d: node %d report: %v", round, owner, err)
				}
			}
		}
	}

	rotateNode := func(n *distNode) {
		t.Helper()
		// A node that owns an empty group cannot estimate; the seal (and
		// the delta push it triggers) still happens.
		if _, err := n.client.Tenant(DefaultTenant).Rotate(ctx); err == nil {
			return
		}
		tn, _ := n.srv.Registry().Get(DefaultTenant)
		if _, err := tn.Rotate(); err != nil {
			t.Logf("node %s rotate: %v (seal still pushed)", n.pusher.node, err)
		}
	}

	// Round 1: all nodes report and rotate; the epoch publishes clean.
	ingestRound(0)
	for _, n := range cluster {
		rotateNode(n)
	}
	checkRound(0, co, coordClient)

	// Round 2: two nodes rotate, then the coordinator dies without a
	// shutdown — epoch 2 is mid-merge in the WAL.
	ingestRound(1)
	rotateNode(cluster[0])
	rotateNode(cluster[1])

	// Kill: abandon the old coordinator (no Close, store left open) and
	// recover a replacement from the same directory.
	co2, rep, err := stream.RecoverCoordinator(stream.CoordinatorConfig{
		Nodes: nodeIDs, Straggler: time.Hour, Store: openReopened(t, dir),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tenants != 1 || rep.Torn {
		t.Fatalf("unexpected coordinator recovery: %+v", rep)
	}
	coordClient2 := newCoordServer(t, co2)
	for _, n := range cluster {
		n.pusher.dst.Store(coordClient2)
	}

	// The straggler's rotation finishes epoch 2 on the new coordinator.
	rotateNode(cluster[2])
	checkRound(1, co2, coordClient2)

	// Round 3 runs entirely on the recovered coordinator.
	ingestRound(2)
	for _, n := range cluster {
		rotateNode(n)
	}
	checkRound(2, co2, coordClient2)

	// At scale: a second tenant whose per-group bucket counts derive from
	// expected_users instead of being pinned, 2 400 users in one round
	// over 16 stripes. Each node ingests its share in batches on one
	// ordered connection, so per-stripe arrival order — and with it the
	// float-sum order the merged estimate depends on — matches the
	// reference.
	const (
		scaleTenant = "scale"
		scaleUsers  = 2400
	)
	scaleSpec := distSpec()
	scaleSpec.Serve = &core.ServeSpec{ExpectedUsers: scaleUsers, Shards: 16}
	scaleRef, err := refSrv.Registry().CreateSpec(scaleTenant, scaleSpec)
	if err != nil {
		t.Fatal(err)
	}
	if err := co2.AddTenantSpec(scaleTenant, scaleSpec); err != nil {
		t.Fatal(err)
	}
	for _, n := range cluster {
		if _, err := n.client.CreateTenantSpec(ctx, scaleTenant, scaleSpec); err != nil {
			t.Fatal(err)
		}
	}
	parts := make([][]ReportRequest, nodes)
	for i := 0; i < scaleUsers; i++ {
		g := i % groups
		user := "s" + strconv.Itoa(i)
		vals := make([]float64, refGroups[g].Reports)
		for k := range vals {
			vals[k] = mechs[g].Perturb(r, rng.Uniform(r, -0.5, 0.1))
		}
		if err := scaleRef.Ingest(user, g, vals); err != nil {
			t.Fatal(err)
		}
		owner := stream.StripeOf(user, scaleRef.Shards()) % nodes
		parts[owner] = append(parts[owner], ReportRequest{User: user, Group: g, Values: vals})
	}
	for i, n := range cluster {
		for lo := 0; lo < len(parts[i]); lo += 200 {
			res, err := n.client.Tenant(scaleTenant).Ingest(ctx, parts[i][lo:min(lo+200, len(parts[i]))])
			if err != nil || res.Rejected > 0 {
				t.Fatalf("scale: node %d ingest: %v, %+v", i, err, res)
			}
		}
		if _, err := n.client.Tenant(scaleTenant).Rotate(ctx); err != nil {
			t.Fatalf("scale: node %d rotate: %v", i, err)
		}
	}
	scaleSnap, err := scaleRef.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	got, err := coordClient2.MergeEstimate(ctx, scaleTenant)
	if err != nil {
		t.Fatal(err)
	}
	if want := estimateResponse(scaleSnap); !reflect.DeepEqual(*got, want) {
		t.Fatalf("scale: merged estimate differs from single-collector reference\n got: %+v\nwant: %+v", *got, want)
	}
	ledger, err := co2.Ledger(scaleTenant)
	if err != nil {
		t.Fatal(err)
	}
	if want := scaleRef.Accountant().Export(); !reflect.DeepEqual(ledger, want) {
		t.Fatalf("scale: merged ledger (%d users) differs from reference (%d users)", len(ledger), len(want))
	}

	// The publishes above moved the coordinator's merge families: every
	// node's delta counted, the node gauge at N, a publish-lag sample for
	// the tenant.
	resp, err := coordClient2.hc.Get(coordClient2.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc, err := metrics.Parse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var deltas float64
	for _, s := range sc.Samples {
		if s.Name == "dap_merge_deltas_total" {
			deltas += s.Value
		}
	}
	if deltas < nodes {
		t.Errorf("dap_merge_deltas_total = %g, want >= %d", deltas, nodes)
	}
	if v := sc.Value("dap_merge_nodes", nil); v != nodes {
		t.Errorf("dap_merge_nodes = %g, want %d", v, nodes)
	}
	lag, ok := sc.Get("dap_merge_epoch_lag_seconds", map[string]string{"tenant": scaleTenant})
	if !ok || lag.Value < 0 {
		t.Errorf("dap_merge_epoch_lag_seconds{tenant=%q} = %+v (present %v), want a published epoch", scaleTenant, lag, ok)
	}
}

// openReopened reopens a store directory the previous owner never
// closed — the crash idiom: on Linux the old process's open files do
// not block a fresh open.
func openReopened(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{Sync: store.SyncOS})
	if err != nil {
		t.Fatal(err)
	}
	return st
}
