// Package privacy provides a per-user privacy-budget accountant enforcing
// the composition rules that DAP's grouping relies on: sequential
// composition (budgets of repeated reports on the same value add up) and
// the per-user cap ε. The simulator uses it to assert that every user —
// whichever group they land in — spends exactly the advertised budget; the
// streaming collector keeps its whole per-user state here — one record per
// user holding the group binding and the spend, found with one lookup per
// report — so the table is striped by user hash to keep concurrent
// ingesters from serializing on one lock.
package privacy

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrBudgetExceeded is returned when a spend would push a user past cap.
var ErrBudgetExceeded = errors.New("privacy: budget exceeded")

// stripes is the number of independent table shards. Users hash to
// different stripes and proceed concurrently; 64 keeps the collision
// probability low for any realistic ingest worker count.
const stripes = 64

// spendTol absorbs floating-point drift so that h reports of ε/h compose
// to exactly ε.
const spendTol = 1e-9

// slabRecords is how many records a stripe allocates at once: one
// pointer-free block instead of one small object per user for the
// collector to mark.
const slabRecords = 256

// Hash is the FNV-1a hash of a user id that selects the user's table
// stripe here and the histogram stripe in the streaming engine, which
// hashes an id once per report. It must be stable across process restarts
// — WAL replay re-runs every accepted report through the ingest path, and
// bit-identical recovered sums need a deterministic user→stripe
// assignment. Placement inside a table stripe uses the Go map's
// per-process seeded hash instead, so crafted ids can crowd a stripe's
// lock but not degrade its lookups.
//
//dapvet:hotpath
func Hash(id string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return h
}

// Record is one user's entry in the table: cumulative spend and group
// binding. A record never moves or dies while its Accountant lives, so
// the handle Bind returns stays valid without holding any lock. The spend
// is updated by compare-and-swap: concurrent charges through two handles
// to the same record cannot overspend, whatever locks their callers hold.
type Record struct {
	spent atomic.Uint64 // math.Float64bits of the cumulative spend
	group int32         // bound group, -1 = none; guarded by the stripe lock
}

// load returns the budget the record's user has consumed.
func (r *Record) load() float64 { return math.Float64frombits(r.spent.Load()) }

// add moves the spend by delta, clamped at zero, unless the result would
// exceed limit; it returns the spend it observed and whether it moved.
func (r *Record) add(delta, limit float64) (float64, bool) {
	for {
		old := r.spent.Load()
		cur := math.Float64frombits(old)
		next := max(cur+delta, 0)
		if next > limit {
			return cur, false
		}
		if r.spent.CompareAndSwap(old, math.Float64bits(next)) {
			return cur, true
		}
	}
}

// Force records n spends of eps without the cap check. It exists for WAL
// replay: a logged charge was already admitted under the cap before it
// was written, so re-applying it must not re-ask — otherwise float drift
// or a tightened cap could silently drop acked spend and break budget
// monotonicity across recovery.
func (r *Record) Force(eps float64, n int) { r.add(eps*float64(n), math.Inf(1)) }

// Refund returns n spends of eps, clamping at zero. It exists for the
// durable ingest path: a charge whose WAL append fails is rolled back so
// the rejected request leaves no trace.
func (r *Record) Refund(eps float64, n int) { r.add(-eps*float64(n), math.Inf(1)) }

// tableStripe is one shard of the user table, padded to a full cache line
// (8B mutex + 8B map header + 24B slab + 24B pad = 64B) so adjacent
// stripes don't false-share under concurrent binds.
type tableStripe struct {
	mu    sync.Mutex
	users map[string]*Record
	slab  []Record // unused tail of the newest record block
	_     [24]byte
}

// Accountant is the per-user table: it tracks every user's spent budget
// against a common cap and, for the streaming collector, the group the
// user is bound to. It is safe for concurrent use; operations on
// different users mostly proceed without contention.
type Accountant struct {
	cap  float64
	hint int // initial size of a stripe's map, see Reserve
	part [stripes]tableStripe
}

// NewAccountant creates an accountant with the given per-user cap ε.
func NewAccountant(cap float64) (*Accountant, error) {
	if cap <= 0 {
		return nil, errors.New("privacy: cap must be positive")
	}
	return &Accountant{cap: cap}, nil
}

// maxReserve bounds what Reserve pre-sizes for: a tenant announcing
// millions of users pays for them as they arrive, not on a promise.
const maxReserve = 1 << 19

// Reserve sizes the table for an expected number of users, sparing the
// ingest path the map growth up to there. It must precede any other use.
// Nothing is allocated yet: each stripe makes its map on its first insert,
// so an idle tenant costs nothing however many users it announced.
func (a *Accountant) Reserve(users int) {
	a.hint = min(users, maxReserve) / stripes
}

// Cap returns the per-user budget cap.
func (a *Accountant) Cap() float64 {
	return a.cap
}

// bind is the table's one lookup-or-insert: it returns id's record,
// created on first sight with a private copy of id, Hash(id), and the
// group the record is bound to afterwards. An unbound record takes group
// (≥ 0) as its binding; rebind overwrites an existing one.
func (a *Accountant) bind(id string, group int, rebind bool) (r *Record, hash uint64, bound int) {
	hash = Hash(id)
	p := &a.part[hash&(stripes-1)]
	p.mu.Lock()
	r = p.users[id]
	if r == nil {
		if p.users == nil {
			p.users = make(map[string]*Record, a.hint)
		}
		if len(p.slab) == 0 {
			p.slab = make([]Record, slabRecords)
		}
		r, p.slab = &p.slab[0], p.slab[1:]
		r.group = -1
		p.users[strings.Clone(id)] = r
	}
	if group >= 0 && (rebind || r.group < 0) {
		r.group = int32(group)
	}
	bound = int(r.group)
	p.mu.Unlock()
	return r, hash, bound
}

// Bind returns the record of user id — inserting it, bound to group, when
// the user is new — together with Hash(id) and the group the user is
// bound to, which differs from group when an earlier report or Join bound
// them elsewhere. id is copied on insert and need not outlive the call.
func (a *Accountant) Bind(id string, group int) (r *Record, hash uint64, bound int) {
	return a.bind(id, group, false)
}

// Rebind binds user id to group unconditionally (a join hands out the
// binding), inserting the record when the user is new.
func (a *Accountant) Rebind(id string, group int) {
	a.bind(id, group, true)
}

// Charge atomically records n spends of eps each on r, the record of user
// id (named for the error only). Either the whole batch fits under the
// cap and is recorded, or nothing is: a multi-report upload can never
// burn part of a user's budget and then be rejected, and no concurrent
// interleaving can overspend.
func (a *Accountant) Charge(r *Record, id string, eps float64, n int) error {
	if eps <= 0 {
		return errors.New("privacy: spend must be positive")
	}
	if n <= 0 {
		return errors.New("privacy: spend count must be positive")
	}
	total := eps * float64(n)
	if cur, ok := r.add(total, a.cap+spendTol); !ok {
		return fmt.Errorf("%w: user %s at %.6g of %.6g, requested %.6g",
			ErrBudgetExceeded, id, cur, a.cap, total)
	}
	return nil
}

// Spend records eps of budget consumption for user id, applying
// sequential composition. It fails without recording when the spend would
// exceed the cap.
func (a *Accountant) Spend(id string, eps float64) error {
	return a.SpendN(id, eps, 1)
}

// SpendN is Charge on the record of user id, looked up or inserted.
func (a *Accountant) SpendN(id string, eps float64, n int) error {
	r, _, _ := a.Bind(id, -1)
	return a.Charge(r, id, eps, n)
}

// Spent returns the budget consumed by user id so far.
func (a *Accountant) Spent(id string) float64 {
	p := &a.part[Hash(id)&(stripes-1)]
	p.mu.Lock()
	r := p.users[id]
	p.mu.Unlock()
	if r == nil {
		return 0
	}
	return r.load()
}

// Remaining returns the budget user id may still spend.
func (a *Accountant) Remaining(id string) float64 {
	r := a.cap - a.Spent(id)
	if r < 0 {
		return 0
	}
	return r
}

// each calls fn for every record under its stripe's lock.
func (a *Accountant) each(fn func(id string, r *Record)) {
	for i := range a.part {
		p := &a.part[i]
		p.mu.Lock()
		for id, r := range p.users {
			fn(id, r)
		}
		p.mu.Unlock()
	}
}

// Export copies the ledger: consumed budget of every user who spent any.
// A record left at zero by a rejected or refunded report is not part of
// it. Snapshots persist the ledger and Import restores it.
func (a *Accountant) Export() map[string]float64 {
	out := make(map[string]float64)
	a.each(func(id string, r *Record) {
		if v := r.load(); v > 0 {
			out[id] = v
		}
	})
	return out
}

// Bindings copies the user→group binding of every bound user, spent or
// not. Snapshots persist it beside the ledger; Rebind restores it.
func (a *Accountant) Bindings() map[string]int {
	out := make(map[string]int)
	a.each(func(id string, r *Record) {
		if r.group >= 0 {
			out[id] = int(r.group)
		}
	})
	return out
}

// Import replaces users' spends with the exported ledger m. Entries for
// users not in m are left untouched (recovery imports into a fresh
// accountant, so in practice this is a full restore).
func (a *Accountant) Import(m map[string]float64) {
	for id, v := range m {
		r, _, _ := a.Bind(id, -1)
		r.spent.Store(math.Float64bits(v))
	}
}

// TotalSpent sums consumed budget across all users — the scalar the
// recovery monotonicity check compares across a crash.
func (a *Accountant) TotalSpent() float64 {
	_, spent := a.Stats()
	return spent
}

// Users returns the number of users with recorded spends.
func (a *Accountant) Users() int {
	users, _ := a.Stats()
	return users
}

// Stats returns the number of users with recorded spends and their total
// consumed budget in one table pass — the pair the metrics scrape needs.
func (a *Accountant) Stats() (users int, spent float64) {
	a.each(func(_ string, r *Record) {
		if v := r.load(); v > 0 {
			users++
			spent += v
		}
	})
	return users, spent
}

// Exhausted reports whether user id has depleted the cap (within
// tolerance), i.e. reported the full number of times their group demands.
func (a *Accountant) Exhausted(id string) bool {
	return a.Spent(id) >= a.cap-spendTol
}
