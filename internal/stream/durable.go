package stream

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/wirebin"
)

// This file is the bridge between the streaming engine and the store
// package: cutting a tenant's durable image for a snapshot, restoring a
// tenant from one, and Recover — boot-time crash recovery that loads the
// newest snapshot and replays the WAL tail over it.
//
// Replay positions. Each tenant carries two LSNs. walStart is where the
// live epoch begins (the LSN after the tenant's last rotation record):
// ingest records at or beyond it rebuild the live histograms — the live
// epoch is never snapshotted, it is always reproduced by replay, which is
// what makes recovered estimates bit-identical to an uninterrupted run
// (stripe assignment is the deterministic privacy.Hash, and ingest holds the
// stripe lock across WAL append + apply, so per-stripe float accumulation
// order equals LSN order and reproduces exactly). acctFrom is where the
// snapshot's accountant ledger and join counter stop being authoritative:
// charges and joins at or beyond it replay into the accountant — with
// Record.Force, not Charge, because every logged record was already
// admitted under the cap. Records between walStart and acctFrom therefore
// rebuild histograms without re-charging: the snapshot cut happened
// mid-epoch and its ledger already reflects them. An ingest batch record
// covers one LSN per entry and replays through ingestStaged in one call,
// split where a replay position falls inside it (replayIngest).

// snapshotCut builds the tenant's durable image at a consistent cut: the
// exclusive tenant lock quiesces ingest (whose charge→append→apply runs
// entirely under the shared lock) and rotation, and the join lock
// quiesces joins, so the ledger, bindings, sealed window and the recorded
// AcctLSN all describe the same instant. Sealed epoch slices are shared,
// not copied — they are immutable after the seal.
func (t *Tenant) snapshotCut() (store.TenantSnap, error) {
	specJSON, err := json.Marshal(t.Spec())
	if err != nil {
		return store.TenantSnap{}, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.joinMu.Lock()
	joined := t.joined
	acctLSN := t.st.NextLSN()
	t.joinMu.Unlock()
	ts := store.TenantSnap{
		Name:     t.name,
		Spec:     specJSON,
		Seq:      t.seq,
		StartLSN: t.walStart,
		AcctLSN:  acctLSN,
		Joined:   joined,
		Spend:    t.acct.Export(),
		Users:    t.acct.Bindings(),
	}
	for i := range t.sealed {
		eh := &t.sealed[i]
		ts.Epochs = append(ts.Epochs, store.EpochSnap{
			Counts: eh.counts, Sums: eh.sums, Ns: eh.ns,
		})
	}
	return ts, nil
}

// restoreTenant rebuilds a tenant from its snapshot block, recreating it
// through the normal spec→tenant path and then installing the sealed
// window, ledger, bindings and replay positions.
func restoreTenant(ts *store.TenantSnap) (*Tenant, error) {
	var sp core.Spec
	if err := json.Unmarshal(ts.Spec, &sp); err != nil {
		return nil, fmt.Errorf("stream: tenant %s snapshot spec: %w", ts.Name, err)
	}
	t, err := NewTenantSpec(ts.Name, sp)
	if err != nil {
		return nil, fmt.Errorf("stream: tenant %s: %w", ts.Name, err)
	}
	t.seq = ts.Seq
	for _, ep := range ts.Epochs {
		t.sealed = append(t.sealed, epochHist{counts: ep.Counts, sums: ep.Sums, ns: ep.Ns})
	}
	t.acct.Import(ts.Spend)
	for user, g := range ts.Users {
		if g < 0 || g >= len(t.groups) {
			return nil, fmt.Errorf("stream: tenant %s snapshot binds user %s to group %d of %d", ts.Name, user, g, len(t.groups))
		}
		t.acct.Rebind(user, g)
	}
	t.joined = ts.Joined
	t.walStart = ts.StartLSN
	t.acctFrom = ts.AcctLSN
	return t, nil
}

// RecoveryReport summarizes what Recover found and rebuilt.
type RecoveryReport struct {
	// SnapshotLSN is the cut position of the snapshot recovery started
	// from, 0 when it replayed from an empty state.
	SnapshotLSN uint64
	// Records is how many log positions the intact WAL records cover (an
	// ingest batch one per entry); Applied is how many of them changed
	// tenant state (the rest predate snapshot cuts or belong to deleted
	// tenants).
	Records, Applied int
	// Tenants is how many tenants exist after recovery.
	Tenants int
	// Torn reports whether a torn or corrupt WAL tail was truncated.
	Torn bool
	// Warnings carries human-readable notes from the store scan and
	// replay.
	Warnings []string
	// SpendBefore and SpendAfter are the total recorded budget spend in
	// the snapshot and after WAL replay. Recovery enforces
	// SpendAfter ≥ SpendBefore — ε spend never decreases across a crash.
	SpendBefore, SpendAfter float64
}

// Recover loads the durable state under st (which must be freshly opened
// and not yet loaded) and rebuilds a running registry from it: newest
// verifiable snapshot first, then the WAL tail replayed over it in LSN
// order. Tenant epoch clocks are started after replay. The returned
// registry owns st for future appends and snapshots (but not its
// lifetime — closing the store is still the caller's job).
func Recover(st *store.Store) (*Registry, *RecoveryReport, error) {
	rec, err := st.Load()
	if err != nil {
		return nil, nil, err
	}
	rep := &RecoveryReport{
		Torn:     rec.Torn,
		Warnings: rec.Warnings,
	}
	reg := NewRegistry()
	reg.st = st
	var (
		dec  wirebin.Decoder
		one  [1]BatchEntry
		errs []error
	)
	if rec.Snapshot != nil {
		rep.SnapshotLSN = rec.Snapshot.LSN
		for i := range rec.Snapshot.Tenants {
			ts := &rec.Snapshot.Tenants[i]
			t, err := restoreTenant(ts)
			if err != nil {
				rep.Warnings = append(rep.Warnings, err.Error())
				continue
			}
			t.st = st
			rep.SpendBefore += t.acct.TotalSpent()
			reg.tenants[t.name] = t
		}
	}
	for i := range rec.Records {
		r := &rec.Records[i]
		rep.Records += int(r.Span())
		if r.Type == store.RecTenantCreate {
			if _, ok := reg.tenants[r.Tenant]; ok {
				continue // predates the snapshot that already holds it
			}
			var sp core.Spec
			if err := json.Unmarshal(r.Spec, &sp); err != nil {
				rep.Warnings = append(rep.Warnings,
					fmt.Sprintf("tenant %s create at LSN %d: bad spec: %v", r.Tenant, r.LSN, err))
				continue
			}
			t, err := NewTenantSpec(r.Tenant, sp)
			if err != nil {
				rep.Warnings = append(rep.Warnings,
					fmt.Sprintf("tenant %s create at LSN %d: %v", r.Tenant, r.LSN, err))
				continue
			}
			t.st = st
			t.walStart = r.LSN + 1
			t.acctFrom = r.LSN + 1
			reg.tenants[r.Tenant] = t
			rep.Applied++
			continue
		}
		t, ok := reg.tenants[r.Tenant]
		if !ok {
			continue // deleted later, or its create was lost with a torn tail
		}
		switch r.Type {
		case store.RecIngest, store.RecIngestBatch:
			one[0] = BatchEntry{User: r.User, Group: r.Group, Values: r.Values}
			entries := one[:] // a RecIngest is a one-entry batch
			if r.Type == store.RecIngestBatch {
				fr, err := dec.Decode(r.Frame)
				if err != nil {
					rep.Warnings = append(rep.Warnings,
						fmt.Sprintf("tenant %s batch at LSN %d: %v", r.Tenant, r.LSN, err))
					continue
				}
				entries = fr.Entries
			}
			errs = t.replayIngest(r.LSN, entries, errs)
			for i, err := range errs {
				if err != nil {
					rep.Warnings = append(rep.Warnings,
						fmt.Sprintf("tenant %s ingest at LSN %d: %v", r.Tenant, r.LSN+uint64(i), err))
				} else if r.LSN+uint64(i) >= t.walStart {
					rep.Applied++
				}
			}
		case store.RecJoin:
			if r.LSN < t.acctFrom {
				continue
			}
			if r.Group < 0 || r.Group >= len(t.groups) {
				rep.Warnings = append(rep.Warnings,
					fmt.Sprintf("tenant %s join at LSN %d: group %d of %d", r.Tenant, r.LSN, r.Group, len(t.groups)))
				continue
			}
			t.restoreJoin(r.User, r.Group)
			rep.Applied++
		case store.RecRotate:
			if r.LSN >= t.walStart {
				t.replaySeal(r.Seq)
				t.walStart = r.LSN + 1
				rep.Applied++
			}
		case store.RecTenantDelete:
			delete(reg.tenants, r.Tenant)
			rep.Applied++
		}
	}
	// Sum the ledgers in sorted tenant order: map iteration order varies
	// run to run and float addition is not associative, so an unordered
	// sum could make the monotonicity gate below flicker across otherwise
	// bit-identical recoveries.
	names := make([]string, 0, len(reg.tenants))
	for name := range reg.tenants {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		rep.SpendAfter += reg.tenants[name].acct.TotalSpent()
	}
	rep.Tenants = len(reg.tenants)
	// ε-spend monotonicity: replay only ever adds charges on top of the
	// snapshot ledger, so a decrease means corrupt state — refuse to serve
	// from it rather than silently under-count spent budget.
	if rep.SpendAfter < rep.SpendBefore {
		return nil, rep, errors.New("stream: recovery decreased recorded budget spend")
	}
	// Reads come back before writes: rebuild each tenant's cached window
	// estimate from the recovered sealed epochs (best effort — a window
	// that cannot be estimated yet just leaves the cache empty), then
	// start the epoch clocks.
	for _, t := range reg.tenants {
		t.mu.RLock()
		window := append([]epochHist(nil), t.sealed...)
		seq := t.seq
		t.mu.RUnlock()
		if seq > 0 {
			if snap, err := t.estimateWindow(window, nil, seq, false); err == nil {
				t.cached.Store(snap)
			}
		}
		t.Start()
	}
	return reg, rep, nil
}

// replayIngest re-runs one logged batch, its entries at LSNs first,
// first+1, …, through ingestStaged and returns errs refilled with one
// error per entry. The batch splits at the tenant's replay positions:
// entries before walStart sit in a sealed epoch the snapshot holds and
// are skipped, entries before acctFrom rebuild histograms only
// (replayApply), and the rest are charged too (replayCharge). An erroring
// entry — possible only if the spec changed under a tenant, which the
// spec-from-WAL recovery path prevents — is reported, not applied.
func (t *Tenant) replayIngest(first uint64, entries []BatchEntry, errs []error) []error {
	n := uint64(len(entries))
	a := int(min(n, max(first, t.walStart)-first)) // entries with LSN < walStart
	b := int(min(n, max(first, t.acctFrom)-first))
	errs = slices.Grow(errs[:0], len(entries))[:len(entries)]
	clear(errs)
	if b = max(a, b); b > a {
		t.ingestStaged(entries[a:b], errs[a:b], replayApply)
	}
	if len(entries) > b {
		t.ingestStaged(entries[b:], errs[b:], replayCharge)
	}
	return errs
}

// Store returns the registry's durability layer, nil for an ephemeral
// registry.
func (r *Registry) Store() *store.Store {
	return r.st
}

// Snapshot cuts and durably writes a full registry snapshot. It is a
// no-op for an ephemeral registry.
func (r *Registry) Snapshot() error {
	if r.st == nil {
		return nil
	}
	snap := &store.Snapshot{}
	for _, t := range r.List() {
		ts, err := t.snapshotCut()
		if err != nil {
			return err
		}
		snap.Tenants = append(snap.Tenants, ts)
	}
	// The snapshot's own LSN only names the file and bounds GC; the
	// authoritative replay positions are per tenant.
	snap.LSN = r.st.NextLSN()
	return r.st.WriteSnapshot(snap)
}

// StartSnapshots launches the background snapshot loop, cutting a full
// registry snapshot every interval. It is a no-op for an ephemeral
// registry, a non-positive interval, or when the loop already runs;
// Close stops the loop and cuts one final snapshot.
func (r *Registry) StartSnapshots(every time.Duration) {
	if r.st == nil || every <= 0 {
		return
	}
	r.snapCtl.Lock()
	defer r.snapCtl.Unlock()
	if r.stopSnap != nil {
		return
	}
	r.stopSnap = make(chan struct{})
	r.snapDone = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				_ = r.Snapshot() // transient store failures retry next tick
			}
		}
	}(r.stopSnap, r.snapDone)
}
