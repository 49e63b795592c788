package stream

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/emf"
	"repro/internal/ldp"
	"repro/internal/privacy"
	"repro/internal/store"
	"repro/internal/wirebin"
)

// ErrWrongGroup is returned by Ingest when a user reports for a different
// group than the one they are bound to.
var ErrWrongGroup = errors.New("stream: user belongs to another group")

// ErrStoreDown is returned when a state change cannot be made durable:
// the request was rejected (and any budget charge rolled back) because
// the WAL append failed. Clients should retry after the store heals.
var ErrStoreDown = errors.New("stream: durable store unavailable")

// ErrRotating is returned by TryRotate when a rotation is already in
// flight; the caller should retry shortly.
var ErrRotating = errors.New("stream: rotation in progress")

// Snapshot is one materialized estimate of a tenant's window.
type Snapshot struct {
	// Tenant is the owning tenant's name.
	Tenant string
	// Task is the tenant's task kind.
	Task core.TaskKind
	// Epoch is the number of epochs sealed when the snapshot was taken.
	Epoch uint64
	// Live reports whether the unsealed live epoch was folded in.
	Live bool
	// At is the estimation wall-clock time.
	At time.Time
	// Reports is the total report count across the window's groups.
	Reports float64
	// Result is the unified estimate (mean, histogram, frequencies, γ̂ and
	// per-group diagnostics — whichever the task produces).
	Result *core.Result
}

// epochHist is one sealed epoch: per-group histograms, exact sums and
// report counts. Sealed epochs are immutable and shared by reference.
type epochHist struct {
	counts [][]float64
	sums   []float64
	ns     []float64
}

// Tenant is one hosted aggregation: a task-spec estimator, a privacy
// accountant, per-group sharded live histograms, a ring of sealed epochs
// and the cached window estimate.
type Tenant struct {
	name   string
	cfg    Config
	est    core.Streamable
	groups []core.Group
	// acct is the one per-user table: each user's record holds the group
	// binding (set at join or first report) and the cumulative spend.
	acct *privacy.Accountant
	disc []ldp.Discretizer // per group; unused for frequency tasks
	bkt  []int             // per-group histogram resolution d′

	// st is the durability layer, nil for an ephemeral tenant. When set,
	// every accepted ingest, join and rotation is WAL-appended before it
	// takes effect, and walStart (guarded by mu) tracks the live epoch's
	// replay position: the LSN right after the last rotation record.
	st       *store.Store
	walStart uint64
	// acctFrom is the replay position of the accountant/join state; it is
	// only consulted during single-threaded recovery.
	acctFrom uint64

	joinMu sync.Mutex
	joined int

	// mu orders ingestion against rotation: ingesters hold it shared while
	// touching a live stripe, Rotate holds it exclusively while swapping
	// the live shard sets and sealing the epoch.
	mu     sync.RWMutex
	live   []*shardSet
	sealed []epochHist // newest last; len ≤ cfg.Window.Span
	seq    uint64
	// onSeal, when set (guarded by mu), receives each live seal's
	// EpochDelta — the merge-plane export. Fired by rotate after the
	// seal, outside all locks; never fired by recovery replays.
	onSeal func(*EpochDelta)

	// rotateMu serializes rotations end to end (WAL append + seal +
	// estimate), so TryRotate can report an in-flight rotation.
	rotateMu sync.Mutex

	cached atomic.Pointer[Snapshot]
	// warm is the EM-fit state of the latest estimate, seeding the next
	// re-estimation when cfg.Warm is on (epoch-to-epoch warm start). Any
	// recent estimate is a valid seed, so the pointer is simply last-write
	// -wins.
	warm atomic.Pointer[core.WarmState]

	clockMu sync.Mutex
	stop    chan struct{}
	done    chan struct{}

	// met holds the tenant's pre-bound metric handles; lastRotate is the
	// wall clock of the last live seal (unix nanos, 0 = never), read by
	// the epoch-lag gauge at scrape time.
	met        tenantMetrics
	lastRotate atomic.Int64
}

// NewTenant builds a tenant from cfg (defaults filled, see Config). The
// task spec goes through core.Build — the same construction path as batch
// estimation — so any spec that estimates in batch estimates here, and
// any spec Build rejects is rejected here with the same ErrBadSpec.
func NewTenant(name string, cfg Config) (*Tenant, error) {
	if name == "" {
		return nil, errors.New("stream: tenant name must be non-empty")
	}
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	est, err := core.Build(cfg.Spec)
	if err != nil {
		return nil, err
	}
	streamable, ok := est.(core.Streamable)
	if !ok {
		return nil, fmt.Errorf("%w: task %q cannot run as a stream tenant",
			core.ErrBadSpec, cfg.Spec.Task)
	}
	t := &Tenant{name: name, cfg: cfg, est: streamable}
	t.met = bindTenantMetrics(name)
	t.groups = streamable.Groups()
	h := len(t.groups)
	// Per-group histogram resolution: the paper's d′ rule applied to the
	// report volume ExpectedUsers would yield — users split into h equal
	// chunks with the batch collector's exact rounding, group t reporting
	// 2^t times — so a window collected at the expected scale estimates at
	// the same resolution the batch path would have picked.
	t.bkt = make([]int, h)
	for i := range t.groups {
		switch {
		case cfg.Spec.Task == core.TaskFrequency:
			t.bkt[i] = cfg.Spec.K
		case cfg.Buckets > 0:
			t.bkt[i] = cfg.Buckets
		default:
			users := (i+1)*cfg.ExpectedUsers/h - i*cfg.ExpectedUsers/h
			t.bkt[i] = emf.OutputBuckets(users * t.groups[i].Reports)
		}
	}
	if cfg.Spec.Task != core.TaskFrequency {
		t.disc = make([]ldp.Discretizer, h)
		for i := range t.groups {
			t.disc[i] = ldp.NewDiscretizer(t.est.OutputDomain(i), t.bkt[i])
		}
	}
	t.acct, err = privacy.NewAccountant(cfg.Spec.Eps)
	if err != nil {
		return nil, err
	}
	t.acct.Reserve(cfg.ExpectedUsers)
	t.live = t.freshLive()
	return t, nil
}

// NewTenantSpec builds a tenant directly from a task spec, honouring its
// Serve section — the one-call spec→tenant path.
func NewTenantSpec(name string, sp core.Spec) (*Tenant, error) {
	cfg, err := ConfigFromSpec(sp)
	if err != nil {
		return nil, err
	}
	return NewTenant(name, cfg)
}

// freshLive allocates one empty shard set per group.
func (t *Tenant) freshLive() []*shardSet {
	live := make([]*shardSet, len(t.groups))
	for i := range live {
		live[i] = newShardSet(t.cfg.Shards, t.bkt[i])
	}
	return live
}

// Name returns the tenant name.
func (t *Tenant) Name() string { return t.name }

// Kind returns the tenant's task kind.
func (t *Tenant) Kind() core.TaskKind { return t.cfg.Spec.Task }

// Config returns the effective (normalized) configuration.
func (t *Tenant) Config() Config { return t.cfg }

// Spec returns the tenant's task spec with a Serve section reflecting the
// effective engine configuration — enough to recreate the tenant.
func (t *Tenant) Spec() core.Spec { return t.cfg.SpecWithServe() }

// Groups returns the group layout.
func (t *Tenant) Groups() []core.Group { return append([]core.Group(nil), t.groups...) }

// Accountant exposes the tenant's privacy accountant.
func (t *Tenant) Accountant() *privacy.Accountant { return t.acct }

// Join assigns the next user to a group round-robin and records the
// binding, mirroring the batch collector's equal-sized grouping. With a
// store attached the assignment is WAL-logged (best effort: a join handed
// out while the store is down is simply not durable — the binding is
// re-established idempotently when the user first reports).
func (t *Tenant) Join() (string, core.Group) {
	t.joinMu.Lock()
	id := fmt.Sprintf("u%06d", t.joined)
	grp := t.joined % len(t.groups)
	if t.st != nil {
		_, _ = t.st.AppendJoin(t.name, id, grp)
	}
	t.joined++
	t.acct.Rebind(id, grp)
	t.joinMu.Unlock()
	return id, t.groups[grp]
}

// restoreJoin re-applies a logged join during recovery: the recorded
// binding, not a recomputed one, so replay reproduces history exactly.
func (t *Tenant) restoreJoin(user string, group int) {
	t.joinMu.Lock()
	t.joined++
	t.acct.Rebind(user, group)
	t.joinMu.Unlock()
}

// Joined returns how many users have joined.
func (t *Tenant) Joined() int {
	t.joinMu.Lock()
	defer t.joinMu.Unlock()
	return t.joined
}

// BatchEntry is one report in a batched ingest. It aliases the store's
// WAL entry type so an all-accepted batch is logged without copying.
type BatchEntry = store.IngestEntry

// Ingest validates and records one user's reports: IngestBatch with a
// single entry, same semantics, its error returned directly.
func (t *Tenant) Ingest(user string, group int, values []float64) error {
	return t.ingestOne(user, group, values, ingestLive)
}

// ingestOne runs a one-entry batch through ingestStaged without touching
// the heap — the form single reports and replayed WAL records arrive in.
func (t *Tenant) ingestOne(user string, group int, values []float64, mode ingestMode) error {
	entry := [1]BatchEntry{{User: user, Group: group, Values: values}}
	var errs [1]error
	t.ingestStaged(entry[:], errs[:], mode)
	return errs[0]
}

// IngestBatch applies many reports, each with the same strict sequence:
// every value is validated and discretized first, an unknown user is bound
// to the group they first report for (later reports for another group are
// rejected), the user's budget is charged atomically for the whole entry,
// and only then is group state touched. One WAL write covers every
// accepted entry, which is what makes the durable ingest path fast. The
// returned slice holds one error per entry, nil for accepted ones; a
// rejected entry mutates nothing and does not block the rest. When the
// store cannot log the batch, every staged entry's charge is rolled back
// and reported as ErrStoreDown.
func (t *Tenant) IngestBatch(entries []BatchEntry) []error {
	errs := make([]error, len(entries))
	t.ingestStaged(entries, errs, ingestLive)
	return errs
}

// ingestMode is what a pass through ingestStaged does about budget,
// durability and metrics.
type ingestMode uint8

const (
	// ingestLive serves a request: charge under the cap, WAL-append, feed
	// the tenant's accept/reject counters.
	ingestLive ingestMode = iota
	// replayCharge re-applies a logged record the recovered ledger does not
	// reflect yet. The charge is forced — the record was admitted under the
	// cap when it was logged — and nothing is appended or counted.
	replayCharge
	// replayApply re-applies a logged record whose charge the snapshot
	// ledger already holds: histograms only.
	replayApply
)

// stagedEntry is one validated entry of a batch awaiting its charge.
type stagedEntry struct {
	b      privacy.Binding // its user's record (charge and refund go through it), Hash and bound group
	i      int             // position in the caller's entries
	lo, hi int             // its bucket indices are arena[lo:hi]
}

// ingestScratch is the working memory of one ingestStaged call. It is
// pooled holding no pointers — not into the caller's batch, and not to
// table records, which would pin a deleted tenant's table.
type ingestScratch struct {
	staged []stagedEntry
	arena  []int // bucket indices of every staged entry, back to back
	keys   []int // (group, stripe) lock keys
}

// Scratch grown past these sizes by an unusually large batch is dropped
// instead of pooled, so one such batch does not pin its arena for good.
const (
	maxScratchEntries = 1024
	maxScratchValues  = 8192
)

// scratchPool recycles ingestScratch so the steady-state ingest path
// allocates nothing.
var scratchPool = sync.Pool{New: func() any { return new(ingestScratch) }}

// ingestStaged is the one way a report enters the tenant — live requests,
// batched or single, and recovery replay. errs (len(entries), all nil)
// receives one error per rejected entry. The stages run in a fixed order
// and a rejected entry leaves no trace:
//
//  1. validate and discretize every value, then look every valid entry's
//     user up in the per-user table in one BindBatch (Bind for a lone
//     entry) — the entry's only lookup, inserting and binding a new user
//     to the group, one table lock per stripe the batch touches — and
//     keep the record handle;
//  2. lock every stripe the batch touches, in one global (group, stripe)
//     order so concurrent batches cannot deadlock;
//  3. charge each entry's budget atomically through its handle — each
//     report in group g costs ε_g; a failed charge rejects that entry alone;
//  4. WAL-append the charged entries with one write; on failure refund all
//     of them and report ErrStoreDown;
//  5. apply to the live histograms.
//
// The whole pass holds the shared rotation lock, so an epoch seal (which
// logs its own record under the exclusive lock) can never slip between the
// append and the apply: the WAL's record order is exactly the order state
// changed in. The stripe locks are held across stages 3–5 because replay
// applies records in LSN order: same-stripe ingests must serialize
// their append+apply for the live run's per-stripe float accumulation order
// (and a same-user ledger's charge order) to equal log order. That is what
// makes recovered sums bit-identical rather than approximately equal.
// Different stripes still proceed concurrently and coalesce into one
// group-commit write.
func (t *Tenant) ingestStaged(entries []BatchEntry, errs []error, mode ingestMode) {
	sc := scratchPool.Get().(*ingestScratch)
	staged, arena, keys := sc.staged[:0], sc.arena[:0], sc.keys[:0]
	nsh := t.cfg.Shards
	t.mu.RLock()
	for i := range entries {
		e := &entries[i]
		switch {
		case e.User == "":
			errs[i] = errors.New("stream: user id must be non-empty")
		case e.Group < 0 || e.Group >= len(t.groups):
			errs[i] = fmt.Errorf("stream: group %d out of range [0,%d)", e.Group, len(t.groups))
		case len(e.Values) == 0:
			errs[i] = errors.New("stream: no values")
		case len(e.Values) > t.groups[e.Group].Reports:
			errs[i] = fmt.Errorf("stream: group %d accepts at most %d reports per request",
				e.Group, t.groups[e.Group].Reports)
		}
		if errs[i] != nil {
			continue
		}
		lo := len(arena)
		if arena, errs[i] = t.appendIndices(arena, e.Group, e.Values); errs[i] != nil {
			continue
		}
		staged = slices.Grow(staged, 1)[:len(staged)+1] // filled in place: an 80-byte literal would be copied
		sg := &staged[len(staged)-1]
		sg.b.User, sg.b.Group, sg.i, sg.lo, sg.hi = e.User, e.Group, i, lo, len(arena)
	}
	// A lone entry — Ingest, /report, WAL replay — takes Bind's direct
	// path; bs, never reassigned, is captured by value, so staged itself
	// stays in registers.
	if bs := staged; len(bs) == 1 {
		b := &bs[0].b
		b.Rec, b.Hash, b.Group = t.acct.Bind(b.User, b.Group)
	} else {
		t.acct.BindBatch(len(bs), func(k int) *privacy.Binding { return &bs[k].b })
	}
	// From here on an entry is live while errs holds nothing for it.
	for j := range staged {
		sg, e := &staged[j], &entries[staged[j].i]
		// A replayed record was admitted when it was logged; a Join issued
		// since may have rebound its user, which must not un-admit it.
		if sg.b.Group != e.Group && mode == ingestLive {
			errs[sg.i] = fmt.Errorf("%w: user %s is bound to group %d", ErrWrongGroup, e.User, sg.b.Group)
			continue
		}
		keys = append(keys, e.Group*nsh+int(sg.b.Hash%uint64(nsh)))
	}
	if len(keys) > 1 {
		slices.Sort(keys)
		keys = slices.Compact(keys)
	}
	for _, k := range keys {
		t.live[k/nsh].shards[k%nsh].mu.Lock()
	}
	charged := 0
	for j := range staged {
		sg, e := &staged[j], &entries[staged[j].i]
		switch {
		case errs[sg.i] != nil:
			continue
		case mode == ingestLive:
			if errs[sg.i] = t.acct.Charge(sg.b.Rec, e.User, t.groups[e.Group].Eps, len(e.Values)); errs[sg.i] != nil {
				continue
			}
		case mode == replayCharge:
			sg.b.Rec.Force(t.groups[e.Group].Eps, len(e.Values))
		}
		charged++
	}
	if mode == ingestLive && t.st != nil && charged > 0 {
		recs := entries // all-accepted batches log as-is, no copy
		if charged != len(entries) {
			recs = make([]BatchEntry, 0, charged)
			for _, sg := range staged {
				if errs[sg.i] == nil {
					recs = append(recs, entries[sg.i])
				}
			}
		}
		if _, err := t.st.AppendIngestBatch(t.name, recs); err != nil {
			// Not durable ⇒ not accepted: roll back every staged charge so
			// the rejected batch leaves no trace, and surface a retryable
			// store-down error per entry.
			for j := range staged {
				sg, e := &staged[j], &entries[staged[j].i]
				if errs[sg.i] == nil {
					sg.b.Rec.Refund(t.groups[e.Group].Eps, len(e.Values))
					errs[sg.i] = fmt.Errorf("%w: %v", ErrStoreDown, err)
				}
			}
			charged = 0
		}
	}
	accepted := 0
	for j := range staged {
		sg, e := &staged[j], &entries[staged[j].i]
		if errs[sg.i] == nil {
			t.live[e.Group].stripe(sg.b.Hash).addLocked(arena[sg.lo:sg.hi], e.Values)
			accepted += len(e.Values)
		}
	}
	for _, k := range keys {
		t.live[k/nsh].shards[k%nsh].mu.Unlock()
	}
	t.mu.RUnlock()
	if mode == ingestLive {
		t.met.ingested.Add(uint64(accepted))
		if rejected := len(entries) - charged; rejected > 0 {
			t.met.rejected.Add(uint64(rejected))
		}
	}
	if cap(staged) <= maxScratchEntries && cap(arena) <= maxScratchValues {
		clear(staged) // the record handles and the caller's ids
		sc.staged, sc.arena, sc.keys = staged, arena, keys
		scratchPool.Put(sc)
	}
}

// appendIndices validates values for the tenant's task and appends their
// bucket indices to idx; on error idx comes back at its original length.
// NaN, ±Inf, out-of-domain values and (for frequency tenants)
// non-integral or out-of-range categories are rejected here, at the wire
// boundary, before any state changes; rejections wrap core.ErrDomain.
func (t *Tenant) appendIndices(idx []int, group int, values []float64) ([]int, error) {
	base := len(idx)
	idx = slices.Grow(idx, len(values))
	if t.cfg.Spec.Task == core.TaskFrequency {
		k := float64(t.cfg.Spec.K)
		for _, v := range values {
			c := int(v)
			if v != float64(c) || v < 0 || v >= k {
				return idx[:base], fmt.Errorf("%w: %g is not a category in [0,%d)",
					core.ErrDomain, v, t.cfg.Spec.K)
			}
			idx = append(idx, c)
		}
		return idx, nil
	}
	d := t.disc[group]
	for _, v := range values {
		i, ok := d.Index(v)
		if !ok {
			dom := t.est.OutputDomain(group)
			return idx[:base], fmt.Errorf("%w: %g outside output domain [%g,%g]",
				core.ErrDomain, v, dom.Lo, dom.Hi)
		}
		idx = append(idx, i)
	}
	return idx, nil
}

// Rotate seals the live epoch, re-estimates the window and caches the
// snapshot. The sealed epoch enters the ring even when the window cannot
// be estimated yet (some group still empty) — the error then reports why
// no fresh cache exists, and the next epochs accumulate normally.
// Rotations are serialized; Rotate waits for an in-flight one.
func (t *Tenant) Rotate() (*Snapshot, error) {
	t.rotateMu.Lock()
	defer t.rotateMu.Unlock()
	return t.rotate()
}

// TryRotate is Rotate without the wait: when another rotation is already
// in flight it returns ErrRotating immediately, so a wire handler can
// answer 503 + Retry-After instead of stacking blocked rotations.
func (t *Tenant) TryRotate() (*Snapshot, error) {
	if !t.rotateMu.TryLock() {
		return nil, ErrRotating
	}
	defer t.rotateMu.Unlock()
	return t.rotate()
}

// sealLocked moves the live epoch into the sealed ring and bumps the
// epoch counter. Caller holds t.mu exclusively. When a seal hook is
// registered the sealed epoch's merge-plane delta is built and returned
// (nil otherwise): per-stripe sums are captured before the stripe fold
// so the coordinator can reproduce that fold bit-for-bit, and the
// cumulative budget ledger is exported here — under the exclusive lock
// no ingest can interleave, so ledger and histograms are one consistent
// cut.
func (t *Tenant) sealLocked() *EpochDelta {
	var delta *EpochDelta
	if t.onSeal != nil {
		delta = &EpochDelta{Tenant: t.name, StripeSums: make([][]float64, len(t.groups))}
		for i, s := range t.live {
			ss := make([]float64, len(s.shards))
			for j := range s.shards {
				ss[j] = s.shards[j].sum
			}
			delta.StripeSums[i] = ss
		}
	}
	eh := epochHist{
		counts: make([][]float64, len(t.groups)),
		sums:   make([]float64, len(t.groups)),
		ns:     make([]float64, len(t.groups)),
	}
	for i, s := range t.live {
		eh.counts[i] = make([]float64, t.bkt[i])
		eh.sums[i], eh.ns[i] = s.mergeLocked(eh.counts[i])
	}
	t.live = t.freshLive()
	t.sealed = append(t.sealed, eh)
	if over := len(t.sealed) - t.cfg.Window.Span; over > 0 {
		t.sealed = append([]epochHist(nil), t.sealed[over:]...)
	}
	t.seq++
	if delta != nil {
		delta.Epoch, delta.Seq = t.seq, t.seq
		// Sealed epochs are immutable: aliasing their histograms into the
		// delta is safe and keeps the seal allocation-light.
		delta.Counts, delta.Ns = eh.counts, eh.ns
		spend := t.acct.Export()
		delta.Spend = make([]wirebin.SpendEntry, 0, len(spend))
		for u, eps := range spend {
			delta.Spend = append(delta.Spend, wirebin.SpendEntry{User: u, Eps: eps})
		}
	}
	return delta
}

// replaySeal re-applies a logged rotation during recovery: seal only, no
// estimation (the recovered window is estimated once at the end).
func (t *Tenant) replaySeal(seq uint64) {
	t.mu.Lock()
	t.sealLocked()
	t.seq = seq
	t.mu.Unlock()
}

func (t *Tenant) rotate() (*Snapshot, error) {
	t.mu.Lock()
	if t.st != nil {
		// The rotation record must be durable before the seal: its WAL
		// position splits ingest records into this epoch and the next, so
		// a crash after the append replays the seal at exactly this point.
		// A failed append aborts the rotation — the live epoch keeps
		// accumulating and the clock retries next epoch.
		lsn, err := t.st.AppendRotate(t.name, t.seq+1)
		if err != nil {
			t.mu.Unlock()
			return nil, fmt.Errorf("%w: %v", ErrStoreDown, err)
		}
		t.walStart = lsn + 1
	}
	delta := t.sealLocked()
	hook := t.onSeal
	seq := t.seq
	window := append([]epochHist(nil), t.sealed...)
	t.mu.Unlock()
	t.met.rotations.Inc()
	t.lastRotate.Store(time.Now().UnixNano()) //dapvet:nondeterministic-ok epoch-age gauge, not estimate state
	if hook != nil && delta != nil {
		// Outside every lock: the hook (a node's delta pusher) may block
		// on the network without stalling ingest or other rotations.
		hook(delta)
	}

	snap, err := t.estimateWindow(window, nil, seq, false)
	if err != nil {
		return nil, err
	}
	// Rotations race only in the estimation phase (the seal above is
	// serialized): a slow wire-triggered rotation must not overwrite the
	// epoch clock's fresher snapshot, so publish only monotonically.
	for {
		old := t.cached.Load()
		if old != nil && old.Epoch >= snap.Epoch {
			break
		}
		if t.cached.CompareAndSwap(old, snap) {
			break
		}
	}
	return snap, nil
}

// Estimate returns a window estimate. With includeLive the unsealed live
// epoch is folded into the window and estimated on demand; otherwise the
// snapshot cached by the last successful rotation is returned.
func (t *Tenant) Estimate(includeLive bool) (*Snapshot, error) {
	if !includeLive {
		if snap := t.cached.Load(); snap != nil {
			return snap, nil
		}
		return nil, errors.New("stream: no sealed estimate yet (rotate first or request a live estimate)")
	}
	t.mu.RLock()
	window := append([]epochHist(nil), t.sealed...)
	liveHist := epochHist{
		counts: make([][]float64, len(t.groups)),
		sums:   make([]float64, len(t.groups)),
		ns:     make([]float64, len(t.groups)),
	}
	for i, s := range t.live {
		liveHist.counts[i] = make([]float64, t.bkt[i])
		liveHist.sums[i], liveHist.ns[i] = s.mergeLive(liveHist.counts[i])
	}
	seq := t.seq
	t.mu.RUnlock()
	return t.estimateWindow(window, &liveHist, seq, true)
}

// Cached returns the snapshot of the last successful rotation, nil if none.
func (t *Tenant) Cached() *Snapshot { return t.cached.Load() }

// LastRotation returns when the tenant last sealed a live epoch (zero
// before the first seal; replays during recovery do not count).
func (t *Tenant) LastRotation() time.Time {
	ns := t.lastRotate.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// estimateWindow merges the sealed window (plus the optional live epoch)
// into one histogram collection and runs the tenant's estimator through
// the unified EstimateHist surface. No locks are held: sealed epochs are
// immutable and the live epoch was copied.
func (t *Tenant) estimateWindow(window []epochHist, liveHist *epochHist, seq uint64, live bool) (*Snapshot, error) {
	h := len(t.groups)
	counts := make([][]float64, h)
	sums := make([]float64, h)
	var total float64
	for i := 0; i < h; i++ {
		counts[i] = make([]float64, t.bkt[i])
	}
	merge := func(eh *epochHist) {
		for i := 0; i < h; i++ {
			for b, c := range eh.counts[i] {
				counts[i][b] += c
			}
			sums[i] += eh.sums[i]
			total += eh.ns[i]
		}
	}
	for i := range window {
		merge(&window[i])
	}
	if liveHist != nil {
		merge(liveHist)
	}
	ctx := context.Background()
	if t.cfg.Warm {
		ctx = core.WithWarm(ctx, t.warm.Load())
	}
	start := time.Now() //dapvet:nondeterministic-ok duration metric, not estimate state
	res, err := t.est.EstimateHist(ctx,
		&core.HistCollection{Counts: counts, Sums: sums})
	t.met.estimateDur.Observe(time.Since(start).Seconds()) //dapvet:nondeterministic-ok duration metric, not estimate state
	if err != nil {
		return nil, err
	}
	t.met.warmHits.Add(uint64(res.WarmHits))
	if t.cfg.Warm && res.Warm != nil {
		t.warm.Store(res.Warm)
	}
	return &Snapshot{
		Tenant:  t.name,
		Task:    t.cfg.Spec.Task,
		Epoch:   seq,
		Live:    live,
		At:      time.Now(), //dapvet:nondeterministic-ok snapshot wall-clock stamp, not estimate state
		Reports: total,
		Result:  res,
	}, nil
}

// Status summarizes a tenant for monitoring.
type Status struct {
	// Name and Task identify the tenant.
	Name string
	Task core.TaskKind
	// Eps and Eps0 are the configured budgets.
	Eps, Eps0 float64
	// Scheme names the estimation scheme.
	Scheme string
	// Users is how many users have joined; Reporters how many have spent
	// budget.
	Users     int
	Reporters int
	// Epoch is the number of sealed epochs.
	Epoch uint64
	// GroupReports counts the reports per group currently in the window
	// (sealed window plus live epoch).
	GroupReports []float64
	// CachedEpoch is the epoch of the cached estimate (0 = none yet).
	CachedEpoch uint64
}

// Status returns a monitoring summary.
func (t *Tenant) Status() Status {
	st := Status{
		Name:   t.name,
		Task:   t.cfg.Spec.Task,
		Eps:    t.cfg.Spec.Eps,
		Eps0:   t.cfg.Spec.Eps0,
		Scheme: t.cfg.Spec.Scheme,
		Users:  t.Joined(),
	}
	st.Reporters = t.acct.Users()
	t.mu.RLock()
	st.Epoch = t.seq
	st.GroupReports = make([]float64, len(t.groups))
	for i := range t.groups {
		for e := range t.sealed {
			st.GroupReports[i] += t.sealed[e].ns[i]
		}
		st.GroupReports[i] += t.live[i].count()
	}
	t.mu.RUnlock()
	if snap := t.cached.Load(); snap != nil {
		st.CachedEpoch = snap.Epoch
	}
	return st
}

// Start launches the epoch clock when the configuration carries one
// (Window.Epoch > 0): the tenant rotates itself every epoch, keeping the
// cached estimate at most one epoch stale. Rotation errors (typically an
// empty window during warm-up) leave the previous cache in place. Start is
// a no-op for clockless tenants and when the clock already runs.
func (t *Tenant) Start() {
	if t.cfg.Window.Epoch <= 0 {
		return
	}
	t.clockMu.Lock()
	defer t.clockMu.Unlock()
	if t.stop != nil {
		return
	}
	t.stop = make(chan struct{})
	t.done = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		tick := time.NewTicker(t.cfg.Window.Epoch)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				_, _ = t.Rotate()
			}
		}
	}(t.stop, t.done)
}

// Stop halts the epoch clock (if running) and waits for it to exit.
func (t *Tenant) Stop() {
	t.clockMu.Lock()
	stop, done := t.stop, t.done
	t.stop, t.done = nil, nil
	t.clockMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}
