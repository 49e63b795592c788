package stream

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/wirebin"
)

// Coordinator is the merge plane of a multi-node deployment: N collector
// nodes ingest disjoint user partitions and push each sealed epoch as a
// delta frame; the coordinator merges the deltas per (tenant, epoch) and
// runs the shared EMF estimate path over the merged window — the same
// estimateWindow every single-node rotation uses, on an ephemeral tenant
// that never ingests directly.
//
// Merge semantics. Per epoch the coordinator keeps one delta per node,
// first delta wins (duplicate pushes are acknowledged and dropped — the
// merge is idempotent). An epoch publishes when every registered node
// has reported, or — once at least Quorum nodes have and the straggler
// timeout has passed — as a partial epoch flagged degraded. At publish
// the retained deltas are folded in sorted node order, making the merge
// independent of arrival order: histogram counts and report totals sum
// (integer-valued, exact in any order), per-stripe sums add across nodes
// and then fold in stripe-index order — reproducing the single-node
// stripe fold bit-for-bit when nodes own disjoint stripes — and budget
// ledgers reconcile per user by maximum of the cumulative spends
// (histograms add, spends take max, exactly the snapshot-merge rule).
// Deltas for an already-published epoch are counted as stragglers and
// dropped.
//
// Durability. With a store attached every accepted delta is WAL-logged
// (RecMergeDelta, raw frame bytes) before it merges, and
// RecoverCoordinator replays the log: published epochs re-publish from
// the identical sorted fold, in-flight epochs are reconstructed
// delta-for-delta — so a coordinator restart is bit-invisible to the
// estimates. The coordinator keeps no snapshots; its WAL is truncated
// only by operator intervention, which is acceptable for the epoch
// cadences it serves (documented in DESIGN.md).
type Coordinator struct {
	mu      sync.Mutex
	nodes   map[string]*nodeState
	quorum  int
	timeout time.Duration
	st      *store.Store
	replay  bool // recovery replay: no WAL re-append, no metric counts
	tenants map[string]*coordTenant
	now     func() time.Time

	clockMu sync.Mutex
	stop    chan struct{}
	done    chan struct{}
}

// nodeState tracks per-node liveness.
type nodeState struct {
	lastEpoch uint64
	lastSeen  time.Time
	deltas    uint64
}

// coordTenant is one tenant's merge state.
type coordTenant struct {
	t       *Tenant // ephemeral estimator; never ingested, clock never started
	stripes int
	pending map[uint64]*mergeEpoch
	// published is the highest published epoch; window is the merged
	// sealed ring (≤ Span epochs, newest last) feeding estimateWindow.
	published uint64
	window    []epochHist
	// ledger is the merged cumulative per-user spend (max across nodes).
	ledger map[string]float64
	// degraded marks the latest published epoch as partial (quorum
	// publish after the straggler timeout, or an epoch gap).
	degraded    bool
	lastPublish time.Time
	lastErr     error // estimate error of the latest publish, nil if clean
	cached      *Snapshot
}

// mergeEpoch is one in-flight epoch: the retained delta per node and
// when the first one arrived (the straggler clock).
type mergeEpoch struct {
	deltas  map[string]*wirebin.Delta
	firstAt time.Time
}

// CoordinatorConfig parameterizes a Coordinator.
type CoordinatorConfig struct {
	// Nodes are the registered node ids. Every node is expected to push
	// one delta per (tenant, epoch); the set is fixed for the
	// coordinator's lifetime.
	Nodes []string
	// Quorum is the minimum number of nodes whose deltas must be present
	// before the straggler timeout may publish a partial epoch
	// (default: all registered nodes — partial publishes off).
	Quorum int
	// Straggler is how long after an epoch's first delta the coordinator
	// waits for the remaining nodes before a quorum publish
	// (default 30s).
	Straggler time.Duration
	// Store, when set, WAL-logs tenant registrations and accepted deltas
	// for bit-identical crash recovery (RecoverCoordinator). The
	// coordinator does not own the store's lifetime.
	Store *store.Store
}

// MergeResult reports what Apply did with a delta.
type MergeResult struct {
	// Status is "merged" (retained, epoch still open or just published),
	// "duplicate" (this node already reported the epoch) or "late" (the
	// epoch was already published; the delta is dropped and counted as a
	// straggler).
	Status string
	// Epoch is the delta's epoch; Published the tenant's highest
	// published epoch after this apply; Degraded whether that publish
	// was partial.
	Epoch     uint64
	Published uint64
	Degraded  bool
}

// Sentinel errors of the merge plane.
var (
	// ErrUnknownNode rejects deltas from node ids outside the registered set.
	ErrUnknownNode = errors.New("stream: delta from unregistered node")
	// ErrUnknownTenant rejects deltas for tenants the coordinator does not host.
	ErrUnknownTenant = errors.New("stream: delta for unknown tenant")
	// ErrShapeMismatch rejects deltas whose histogram geometry (groups,
	// buckets, stripes) disagrees with the tenant's spec.
	ErrShapeMismatch = errors.New("stream: delta shape does not match tenant spec")
)

// NewCoordinator builds a coordinator for a fixed node set.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("stream: coordinator needs at least one registered node")
	}
	nodes := make(map[string]*nodeState, len(cfg.Nodes))
	for _, n := range cfg.Nodes {
		if n == "" || len(n) > wirebin.MaxNodeLen {
			return nil, fmt.Errorf("stream: invalid node id %q", n)
		}
		if _, dup := nodes[n]; dup {
			return nil, fmt.Errorf("stream: duplicate node id %q", n)
		}
		nodes[n] = &nodeState{}
	}
	q := cfg.Quorum
	if q == 0 {
		q = len(nodes)
	}
	if q < 1 || q > len(nodes) {
		return nil, fmt.Errorf("stream: quorum %d out of range for %d nodes", q, len(nodes))
	}
	timeout := cfg.Straggler
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	if timeout < 0 {
		return nil, errors.New("stream: straggler timeout must be non-negative")
	}
	c := &Coordinator{
		nodes:   nodes,
		quorum:  q,
		timeout: timeout,
		st:      cfg.Store,
		tenants: make(map[string]*coordTenant),
		now:     time.Now,
	}
	metMergeNodes.Set(float64(len(nodes)))
	return c, nil
}

// RecoverCoordinator rebuilds a coordinator from its store (freshly
// opened, not yet loaded): tenant registrations and accepted deltas
// replay in LSN order, re-publishing every epoch that reaches its full
// node set from the identical sorted fold — bit-identical to the
// uncrashed coordinator. Epochs still in flight at the crash are
// reconstructed delta-for-delta; their straggler clocks restart at
// recovery time, so a partial publish that was only awaiting the
// timeout happens one timeout after boot instead.
func RecoverCoordinator(cfg CoordinatorConfig) (*Coordinator, *RecoveryReport, error) {
	if cfg.Store == nil {
		return nil, nil, errors.New("stream: RecoverCoordinator needs a store")
	}
	rec, err := cfg.Store.Load()
	if err != nil {
		return nil, nil, err
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		return nil, nil, err
	}
	rep := &RecoveryReport{
		Torn:     rec.Torn,
		Warnings: rec.Warnings,
	}
	c.replay = true
	for i := range rec.Records {
		r := &rec.Records[i]
		rep.Records += int(r.Span())
		switch r.Type {
		case store.RecTenantCreate:
			var sp core.Spec
			if err := json.Unmarshal(r.Spec, &sp); err != nil {
				rep.Warnings = append(rep.Warnings,
					fmt.Sprintf("merge replay: undecodable spec for tenant %q: %v", r.Tenant, err))
				continue
			}
			if err := c.AddTenantSpec(r.Tenant, sp); err != nil {
				rep.Warnings = append(rep.Warnings,
					fmt.Sprintf("merge replay: tenant %q: %v", r.Tenant, err))
				continue
			}
			rep.Applied++
		case store.RecMergeDelta:
			if _, err := c.Apply(r.Spec); err != nil {
				rep.Warnings = append(rep.Warnings,
					fmt.Sprintf("merge replay: delta lsn %d (node %q, epoch %d): %v",
						r.LSN, r.User, r.Seq, err))
				continue
			}
			rep.Applied++
		default:
			rep.Warnings = append(rep.Warnings,
				fmt.Sprintf("merge replay: skipping %s record lsn %d", r.Type, r.LSN))
		}
	}
	c.replay = false
	c.mu.Lock()
	rep.Tenants = len(c.tenants)
	names := make([]string, 0, len(c.tenants))
	for name := range c.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ct := c.tenants[name]
		users := make([]string, 0, len(ct.ledger))
		for u := range ct.ledger {
			users = append(users, u)
		}
		sort.Strings(users)
		for _, u := range users {
			rep.SpendAfter += ct.ledger[u]
		}
	}
	c.mu.Unlock()
	return c, rep, nil
}

// AddTenantSpec registers a tenant on the merge plane from its task spec
// — the same spec every node serves, so the ephemeral estimator built
// here has the identical groups, bucket resolutions and stripe geometry.
// With a store attached the registration is WAL-logged first.
func (c *Coordinator) AddTenantSpec(name string, sp core.Spec) error {
	if !tenantName.MatchString(name) {
		return fmt.Errorf("stream: invalid tenant name %q", name)
	}
	t, err := NewTenantSpec(name, sp)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tenants[name]; dup {
		return fmt.Errorf("stream: merge tenant %q already exists", name)
	}
	if c.st != nil && !c.replay {
		specJSON, err := json.Marshal(t.Spec())
		if err != nil {
			return err
		}
		if _, err := c.st.AppendTenantCreate(name, specJSON); err != nil {
			return fmt.Errorf("%w: %v", ErrStoreDown, err)
		}
	}
	c.tenants[name] = &coordTenant{
		t:       t,
		stripes: t.Shards(),
		pending: make(map[uint64]*mergeEpoch),
		ledger:  make(map[string]float64),
	}
	return nil
}

// Apply verifies, decodes and merges one delta frame, WAL-logging it
// first when the coordinator is durable. Invalid frames, unknown
// nodes/tenants and shape mismatches error without changing state;
// duplicates and stragglers are acknowledged in the result and dropped.
func (c *Coordinator) Apply(frame []byte) (MergeResult, error) {
	d, err := wirebin.DecodeDelta(frame)
	if err != nil {
		return MergeResult{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ns, ok := c.nodes[d.Node]
	if !ok {
		return MergeResult{}, fmt.Errorf("%w: %q", ErrUnknownNode, d.Node)
	}
	ct, ok := c.tenants[d.Tenant]
	if !ok {
		return MergeResult{}, fmt.Errorf("%w: %q", ErrUnknownTenant, d.Tenant)
	}
	if err := ct.checkShape(d); err != nil {
		return MergeResult{}, err
	}
	now := c.now() //dapvet:determinism-ok straggler/liveness clock, not estimate state
	ns.lastSeen = now
	if d.Epoch > ns.lastEpoch {
		ns.lastEpoch = d.Epoch
	}
	res := MergeResult{Epoch: d.Epoch}
	if d.Epoch <= ct.published {
		if !c.replay {
			metMergeStragglers.Inc()
		}
		res.Status = "late"
		res.Published, res.Degraded = ct.published, ct.degraded
		return res, nil
	}
	me := ct.pending[d.Epoch]
	if me != nil {
		if _, dup := me.deltas[d.Node]; dup {
			res.Status = "duplicate"
			res.Published, res.Degraded = ct.published, ct.degraded
			return res, nil
		}
	}
	if c.st != nil && !c.replay {
		// Durable before merged: a delta that changes coordinator state
		// must survive a crash, or recovery diverges from what was served.
		if _, err := c.st.AppendMergeDelta(d.Tenant, d.Node, d.Epoch, frame); err != nil {
			return MergeResult{}, fmt.Errorf("%w: %v", ErrStoreDown, err)
		}
	}
	if me == nil {
		me = &mergeEpoch{deltas: make(map[string]*wirebin.Delta), firstAt: now}
		ct.pending[d.Epoch] = me
	}
	me.deltas[d.Node] = d
	if !c.replay {
		ns.deltas++
		metMergeDeltas.With(d.Node).Inc()
	}
	c.advanceLocked(ct, now)
	res.Status = "merged"
	res.Published, res.Degraded = ct.published, ct.degraded
	return res, nil
}

// checkShape validates a delta's histogram geometry against the tenant.
func (ct *coordTenant) checkShape(d *wirebin.Delta) error {
	t := ct.t
	if len(d.Counts) != len(t.groups) {
		return fmt.Errorf("%w: %d groups, spec has %d", ErrShapeMismatch, len(d.Counts), len(t.groups))
	}
	for g, counts := range d.Counts {
		if len(counts) != t.bkt[g] {
			return fmt.Errorf("%w: group %d has %d buckets, spec has %d",
				ErrShapeMismatch, g, len(counts), t.bkt[g])
		}
		if len(d.StripeSums[g]) != ct.stripes {
			return fmt.Errorf("%w: group %d has %d stripes, spec has %d",
				ErrShapeMismatch, g, len(d.StripeSums[g]), ct.stripes)
		}
	}
	return nil
}

// advanceLocked publishes every epoch that is ready, in epoch order:
// full epochs immediately, quorum epochs once their straggler timeout
// has passed. An epoch gap (nothing pending at published+1 while later
// epochs wait) is crossed only by the timeout, and the skip marks the
// publish degraded. Caller holds c.mu.
func (c *Coordinator) advanceLocked(ct *coordTenant, now time.Time) {
	for len(ct.pending) > 0 {
		// Lowest in-flight epoch first: publishes are strictly ordered.
		low := uint64(0)
		for e := range ct.pending {
			if low == 0 || e < low {
				low = e
			}
		}
		me := ct.pending[low]
		full := len(me.deltas) == len(c.nodes)
		gap := low != ct.published+1
		timedOut := now.Sub(me.firstAt) >= c.timeout
		switch {
		case full && !gap:
			c.publishLocked(ct, low, false)
		case timedOut && len(me.deltas) >= c.quorum:
			c.publishLocked(ct, low, true)
		default:
			return
		}
	}
}

// publishLocked merges epoch e's retained deltas and re-estimates the
// window. The fold visits deltas in sorted node order — commutativity
// and associativity of the merge are by construction, since arrival
// order cannot influence the fold. Caller holds c.mu.
func (c *Coordinator) publishLocked(ct *coordTenant, e uint64, partial bool) {
	me := ct.pending[e]
	delete(ct.pending, e)
	nodes := make([]string, 0, len(me.deltas))
	for n := range me.deltas {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	t := ct.t
	h := len(t.groups)
	eh := epochHist{
		counts: make([][]float64, h),
		sums:   make([]float64, h),
		ns:     make([]float64, h),
	}
	stripeSums := make([][]float64, h)
	for g := 0; g < h; g++ {
		eh.counts[g] = make([]float64, t.bkt[g])
		stripeSums[g] = make([]float64, ct.stripes)
	}
	for _, n := range nodes {
		d := me.deltas[n]
		for g := 0; g < h; g++ {
			for b, cnt := range d.Counts[g] {
				eh.counts[g][b] += cnt
			}
			eh.ns[g] += d.Ns[g]
			for s, sum := range d.StripeSums[g] {
				stripeSums[g][s] += sum
			}
		}
		for _, sp := range d.Spend {
			// Cumulative ledgers reconcile by max: re-deliveries and
			// node restarts can only repeat a spend, never undo one.
			if sp.Eps > ct.ledger[sp.User] {
				ct.ledger[sp.User] = sp.Eps
			}
		}
	}
	// Group sums fold per stripe in index order — the same fold
	// shardSet.mergeLocked performs at a single-node seal, so with
	// stripe-disjoint nodes the merged sum is bit-identical to it.
	for g := 0; g < h; g++ {
		var sum float64
		for _, s := range stripeSums[g] {
			sum += s
		}
		eh.sums[g] = sum
	}
	ct.window = append(ct.window, eh)
	if over := len(ct.window) - t.spec.Serve.Span; over > 0 {
		ct.window = append([]epochHist(nil), ct.window[over:]...)
	}
	degraded := partial || e != ct.published+1
	ct.published = e
	ct.degraded = degraded
	ct.lastPublish = c.now() //dapvet:determinism-ok lag gauge input, not estimate state
	window := append([]epochHist(nil), ct.window...)
	snap, err := t.estimateWindow(window, nil, e, false)
	ct.lastErr = err
	if err == nil {
		ct.cached = snap
	}
	// Like a single-node rotation, an epoch whose window cannot be
	// estimated yet (a group still empty) stays sealed in the ring; the
	// error is surfaced on Estimate and /v1/admin/status.
}

// Tick runs the straggler check once: any tenant whose lowest in-flight
// epoch has a quorum and an expired timeout publishes it as degraded.
// Start runs Tick periodically; tests call it directly with a fake
// clock.
func (c *Coordinator) Tick() {
	c.mu.Lock()
	now := c.now() //dapvet:determinism-ok straggler clock, not estimate state
	for _, name := range c.tenantNamesLocked() {
		c.advanceLocked(c.tenants[name], now)
	}
	c.mu.Unlock()
}

// tenantNamesLocked returns tenant names sorted, for deterministic
// iteration. Caller holds c.mu.
func (c *Coordinator) tenantNamesLocked() []string {
	names := make([]string, 0, len(c.tenants))
	for n := range c.tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Start launches the straggler clock with the given check interval
// (default: a quarter of the straggler timeout). Stop halts it.
func (c *Coordinator) Start(interval time.Duration) {
	if interval <= 0 {
		interval = c.timeout / 4
		if interval <= 0 {
			interval = time.Second
		}
	}
	c.clockMu.Lock()
	defer c.clockMu.Unlock()
	if c.stop != nil {
		return
	}
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	go func(stop, done chan struct{}) {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		defer close(done)
		for {
			select {
			case <-ticker.C:
				c.Tick()
			case <-stop:
				return
			}
		}
	}(c.stop, c.done)
}

// Stop halts the straggler clock.
func (c *Coordinator) Stop() {
	c.clockMu.Lock()
	stop, done := c.stop, c.done
	c.stop, c.done = nil, nil
	c.clockMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Estimate returns the merged-window estimate for a tenant: the cached
// snapshot of the latest publish, or the publish error when the last
// merged window could not be estimated yet.
func (c *Coordinator) Estimate(tenant string) (*Snapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ct, ok := c.tenants[tenant]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	if ct.cached == nil {
		if ct.lastErr != nil {
			return nil, ct.lastErr
		}
		return nil, errors.New("stream: no epoch published yet")
	}
	return ct.cached, nil
}

// Ledger returns a copy of a tenant's merged cumulative per-user budget
// ledger (max across nodes).
func (c *Coordinator) Ledger(tenant string) (map[string]float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ct, ok := c.tenants[tenant]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	out := make(map[string]float64, len(ct.ledger))
	for u, eps := range ct.ledger {
		out[u] = eps
	}
	return out, nil
}

// MergeNodeStatus is one node's liveness on the merge plane.
type MergeNodeStatus struct {
	// Node is the registered node id.
	Node string
	// LastEpoch is the highest epoch the node has reported (0 = never).
	LastEpoch uint64
	// LastSeen is when its latest delta arrived (zero = never).
	LastSeen time.Time
	// Deltas counts its accepted deltas since boot.
	Deltas uint64
}

// MergeTenantStatus is one tenant's merge-plane state.
type MergeTenantStatus struct {
	// Tenant names the tenant.
	Tenant string
	// Published is the highest published epoch; Degraded whether that
	// publish was partial (quorum after a straggler timeout, or an
	// epoch gap).
	Published uint64
	Degraded  bool
	// Pending counts epochs with deltas retained but not yet published.
	Pending int
	// LastError is the estimate error of the latest publish, empty when
	// it produced a snapshot.
	LastError string
}

// MergeStatus summarizes the merge plane for /v1/admin/status.
type MergeStatus struct {
	// Nodes and Quorum echo the configuration; Straggler is the timeout.
	Nodes     []MergeNodeStatus
	Quorum    int
	Straggler time.Duration
	// Tenants lists per-tenant merge state, sorted by name.
	Tenants []MergeTenantStatus
	// Degraded is true when any tenant's latest publish was partial.
	Degraded bool
}

// Status reports the merge plane's current state.
func (c *Coordinator) Status() MergeStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := MergeStatus{Quorum: c.quorum, Straggler: c.timeout}
	names := make([]string, 0, len(c.nodes))
	for n := range c.nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ns := c.nodes[n]
		st.Nodes = append(st.Nodes, MergeNodeStatus{
			Node: n, LastEpoch: ns.lastEpoch, LastSeen: ns.lastSeen, Deltas: ns.deltas,
		})
	}
	for _, name := range c.tenantNamesLocked() {
		ct := c.tenants[name]
		ts := MergeTenantStatus{
			Tenant:    name,
			Published: ct.published,
			Degraded:  ct.degraded,
			Pending:   len(ct.pending),
		}
		if ct.lastErr != nil {
			ts.LastError = ct.lastErr.Error()
		}
		st.Tenants = append(st.Tenants, ts)
		st.Degraded = st.Degraded || ct.degraded
	}
	return st
}

// SyncMetrics refreshes the merge plane's scrape-derived gauges: the
// registered node count and per-tenant publish lag. The /metrics
// handler calls it once per scrape.
//
//dapvet:scrape
func (c *Coordinator) SyncMetrics() {
	c.mu.Lock()
	defer c.mu.Unlock()
	metMergeNodes.Set(float64(len(c.nodes)))
	now := c.now()
	for _, name := range c.tenantNamesLocked() {
		ct := c.tenants[name]
		if ct.lastPublish.IsZero() {
			metMergeEpochLag.With(name).Set(-1)
		} else {
			metMergeEpochLag.With(name).Set(now.Sub(ct.lastPublish).Seconds())
		}
	}
}
