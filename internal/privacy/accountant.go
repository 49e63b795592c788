// Package privacy provides a per-user privacy-budget accountant enforcing
// the composition rules that DAP's grouping relies on: sequential
// composition (budgets of repeated reports on the same value add up) and
// the per-user cap ε. The streaming collector keeps its whole per-user
// state here — one record per user holding the group binding and the
// spend, found with one lookup per report — so the table is striped by
// user hash to keep concurrent ingesters from serializing on one lock.
//
// The table is flat and pointer-free, because it is the collector's memory
// floor: every user ever seen stays in it. A stripe holds 16-byte records
// in fixed chunks that never move, the ids back to back in fixed byte
// chunks, and an open-addressing index of tagged record numbers: the bits
// of an index entry that the record number does not need carry a few bits
// of the id's seeded hash, so a probe loads a record only when they match.
// A user costs 16 B of record, its id's bytes and 5–11 B of index (load
// between 3/8 and 3/4) — about 46 B for a 19-byte id — and nothing the
// collector has to mark: the records and id bytes hold no pointers.
package privacy

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
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

// Table geometry. Records come 256 to a 4 KiB chunk; ids are packed into
// 4 KiB byte chunks, addressed as chunk<<idShift | offset. An id longer
// than maxPacked bytes — or one arriving after a stripe has used all
// 2^(32−idShift) id chunks — is kept as its own string instead, its
// record's length field set to longID; the length is then the string's.
const (
	recShift  = 8
	recChunk  = 1 << recShift
	idShift   = 12
	idChunk   = 1 << idShift
	maxPacked = idChunk / 16
	maxChunks = 1 << (32 - idShift)
	longID    = math.MaxUint16
	minIndex  = 16
)

// Hash is the FNV-1a hash of a user id that selects the user's table
// stripe here and the histogram stripe in the streaming engine, which
// hashes an id once per report. It must be stable across process restarts
// — WAL replay re-runs every accepted report through the ingest path, and
// bit-identical recovered sums need a deterministic user→stripe
// assignment. Placement inside a table stripe uses a per-Accountant
// maphash seed instead, so crafted ids can crowd a stripe's lock but not
// degrade its lookups.
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
// binding. A record lives in a fixed chunk that is never moved or freed
// while its Accountant lives, so the handle Bind returns stays valid
// without holding any lock, however the stripe's index grows. The spend is
// updated by compare-and-swap: concurrent charges through two handles to
// the same record cannot overspend, whatever locks their callers hold.
// The other fields are written once on insert, except group, and are
// guarded by the stripe lock.
type Record struct {
	spent atomic.Uint64 // math.Float64bits of the cumulative spend
	id    uint32        // packed id: chunk<<idShift | offset; long id: index into long
	n     uint16        // id length, or longID
	group int8          // bound group, -1 = none
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

// tableStripe is one shard of the user table. Records are numbered in
// insertion order; record k is recs[k>>recShift][k&(recChunk-1)] (a
// uint32 number: 2^32−1 records, 64 GiB of them, per stripe). index
// is an open-addressing table of 2^b slots, probed triangularly from the
// id's seeded hash and kept at load ≤ 3/4 by doubling. An entry holds the
// record number + 1 in its low b bits (0 = empty slot; the number fits,
// as the stripe holds fewer than 2^b records) and, above them, the same
// bits of the top half of the id's seeded hash as a tag: find compares
// tags and loads only the records whose tag matches. Growing the index
// rehashes the stored ids, recomputing their tags, and moves no record,
// which is why handles stay valid. Id bytes are append-only and never change
// once written, so key may hand out strings that alias them. The padding
// rounds the stripe to two cache lines so adjacent stripes don't
// false-share under concurrent binds.
type tableStripe struct {
	mu    sync.Mutex
	index []uint32
	recs  []*[recChunk]Record
	ids   [][]byte // id chunks; only the last one still has room
	long  []string // ids not packed into a chunk
	n     int      // records in the stripe
	_     [16]byte
}

// rec returns record k.
func (p *tableStripe) rec(k uint32) *Record {
	return &p.recs[k>>recShift][k&(recChunk-1)]
}

// key returns r's id, aliasing the stripe's id bytes.
func (p *tableStripe) key(r *Record) string {
	switch {
	case r.n == longID:
		return p.long[r.id]
	case r.n == 0:
		return ""
	}
	return unsafe.String(&p.ids[r.id>>idShift][r.id&(idChunk-1)], int(r.n))
}

// entry is the index entry of record k, whose id's seeded hash is h: the
// record number + 1 under the index mask, the hash's tag bits above it.
// An index of 2^32 slots or more leaves no tag bits; find then compares
// every probed record's id, as it must.
func (p *tableStripe) entry(k uint32, h uint64) uint32 {
	low := uint32(len(p.index) - 1)
	return k + 1 | uint32(h>>32)&^low
}

// find probes for id, whose seeded hash is h. It returns the id's record
// and the slot holding it, or nil and the empty slot an insert would take.
// The index must exist.
//
//dapvet:hotpath
func (p *tableStripe) find(id string, h uint64) (*Record, int) {
	mask := len(p.index) - 1
	low := uint32(mask)
	tag := uint32(h>>32) &^ low
	i := int(h) & mask
	for step := 1; ; step++ {
		e := p.index[i]
		if e == 0 {
			return nil, i
		}
		if e&^low == tag {
			if r := p.rec(e&low - 1); p.key(r) == id {
				return r, i
			}
		}
		i = (i + step) & mask
	}
}

// touch loads the home slot of the first maxRun entries of the chain at b,
// all of them in this stripe, and returns their OR, which no caller needs:
// the loads are independent, so their cache misses overlap instead of
// each stalling its bindLocked in turn. bindLocked re-reads every slot,
// since an insert earlier in the run may fill it. It is not inlined, so
// the loads are not discarded with the unused result.
//
//go:noinline
func (p *tableStripe) touch(b *Binding) uint32 {
	mask := len(p.index) - 1
	var or uint32
	for run := 0; run < maxRun && b != nil; run++ {
		or |= p.index[int(b.place)&mask]
		b = b.next
	}
	return or
}

// indexSize is the smallest index that holds users at load ≤ 3/4.
func indexSize(users int) int {
	size := minIndex
	for size*3 < users*4 {
		size *= 2
	}
	return size
}

// grow doubles the index and re-places every record in it.
func (p *tableStripe) grow(seed maphash.Seed) {
	p.index = make([]uint32, 2*len(p.index))
	for k := range p.n {
		id := p.key(p.rec(uint32(k)))
		h := maphash.String(seed, id)
		_, slot := p.find(id, h)
		p.index[slot] = p.entry(uint32(k), h)
	}
}

// keep stores a copy of id and returns where it lives and the record's
// length field.
func (p *tableStripe) keep(id string) (uint32, uint16) {
	last := len(p.ids) - 1
	if len(id) <= maxPacked && (last < 0 || len(p.ids[last])+len(id) > idChunk) && len(p.ids) < maxChunks {
		p.ids = append(p.ids, make([]byte, 0, idChunk))
		last++
	}
	if len(id) > maxPacked || len(p.ids[last])+len(id) > idChunk {
		p.long = append(p.long, strings.Clone(id))
		return uint32(len(p.long) - 1), longID
	}
	off := len(p.ids[last])
	p.ids[last] = append(p.ids[last], id...)
	return uint32(last<<idShift | off), uint16(len(id))
}

// insert appends a record for id, unbound and unspent, into the slot find
// returned, growing the index first when it would pass load 3/4.
func (p *tableStripe) insert(id string, h uint64, slot int, seed maphash.Seed) *Record {
	if (p.n+1)*4 > len(p.index)*3 {
		p.grow(seed)
		_, slot = p.find(id, h)
	}
	k := uint32(p.n)
	if k&(recChunk-1) == 0 {
		p.recs = append(p.recs, new([recChunk]Record))
	}
	r := p.rec(k)
	r.id, r.n = p.keep(id)
	r.group = -1
	p.index[slot] = p.entry(k, h)
	p.n++
	return r
}

// Accountant is the per-user table: it tracks every user's spent budget
// against a common cap and, for the streaming collector, the group the
// user is bound to. It is safe for concurrent use; operations on
// different users mostly proceed without contention.
type Accountant struct {
	cap  float64
	hint int          // users a stripe is sized for on its first insert, see Reserve
	seed maphash.Seed // places ids inside a stripe
	part [stripes]tableStripe
}

// NewAccountant creates an accountant with the given per-user cap ε.
func NewAccountant(cap float64) (*Accountant, error) {
	if cap <= 0 {
		return nil, errors.New("privacy: cap must be positive")
	}
	return &Accountant{cap: cap, seed: maphash.MakeSeed()}, nil
}

// maxReserve bounds what Reserve pre-sizes for: a tenant announcing
// millions of users pays for them as they arrive, not on a promise.
const maxReserve = 1 << 19

// Reserve sizes the table for an expected number of users, sparing the
// ingest path the index growth up to there. It must precede any other use.
// Nothing is allocated yet: each stripe makes its index and first chunks
// on its first insert, so an idle tenant costs nothing however many users
// it announced.
func (a *Accountant) Reserve(users int) {
	a.hint = min(users, maxReserve) / stripes
}

// Cap returns the per-user budget cap.
func (a *Accountant) Cap() float64 {
	return a.cap
}

// maxRun is how many binds BindBatch makes under one hold of a stripe's
// lock before it lets go: ids crafted into one stripe cannot hold it for a
// whole frame.
const maxRun = 64

// Binding is one entry of a BindBatch call. User and Group go in; Rec,
// Hash and Group come back as Bind returns them.
type Binding struct {
	User  string   // the user's id, copied on insert; need not outlive the call
	Group int      // in: the group a new user is bound to (-1 none); out: the group bound
	Rec   *Record  // the user's record
	Hash  uint64   // Hash(User)
	place uint64   // User's seeded hash, placing it inside its stripe
	next  *Binding // the batch's next entry in the same stripe
}

// checkGroup refuses a group that does not fit a record's int8;
// core.MaxGroups keeps groups at most 15.
func checkGroup(group int) {
	if group > math.MaxInt8 {
		panic(fmt.Sprintf("privacy: group %d does not fit a record", group))
	}
}

// bindLocked is the table's one lookup-or-insert, run under p's lock, the
// stripe of id, whose seeded hash is place: it returns id's record,
// created on first sight with a private copy of id. An unbound record
// takes group (≥ 0) as its binding; rebind overwrites an existing one.
func (a *Accountant) bindLocked(p *tableStripe, id string, place uint64, group int, rebind bool) *Record {
	if p.index == nil {
		p.index = make([]uint32, indexSize(a.hint))
	}
	r, slot := p.find(id, place)
	if r == nil {
		r = p.insert(id, place, slot, a.seed)
	}
	if group >= 0 && (rebind || r.group < 0) {
		r.group = int8(group)
	}
	return r
}

// bind runs bindLocked for one id under its stripe's lock and returns the
// record, Hash(id) and the group bound afterwards.
func (a *Accountant) bind(id string, group int, rebind bool) (r *Record, hash uint64, bound int) {
	checkGroup(group)
	hash = Hash(id)
	place := maphash.String(a.seed, id)
	p := &a.part[hash&(stripes-1)]
	p.mu.Lock()
	r = a.bindLocked(p, id, place, group, rebind)
	bound = int(r.group)
	p.mu.Unlock()
	return r, hash, bound
}

// Bind returns the record of user id — inserting it, bound to group, when
// the user is new — together with Hash(id) and the group the user is
// bound to, which differs from group when an earlier report or Join bound
// them elsewhere. id is copied on insert and need not outlive the call.
// It is BindBatch of one entry, without the batch's stripe chains.
func (a *Accountant) Bind(id string, group int) (r *Record, hash uint64, bound int) {
	return a.bind(id, group, false)
}

// BindBatch binds n entries at once, at(k) being entry k, which must not
// move during the call: each gets what Bind would return for it, bound in
// batch order. The entries are grouped by stripe, and each stripe's lock
// is taken once per run of up to maxRun of its entries instead of once
// per entry. Within a stripe the order is the batch's, so records are
// numbered and an id's first entry binds it exactly as with n sequential
// Binds. Each run first loads the home index slot of all its entries, so
// that their cache misses overlap, then binds them one by one. A single
// entry is cheaper through Bind, which goes straight to its stripe.
//
//dapvet:hotpath
func (a *Accountant) BindBatch(n int, at func(k int) *Binding) {
	var head, tail [stripes]*Binding
	for k := range n {
		b := at(k)
		checkGroup(b.Group)
		b.Hash, b.place, b.next = Hash(b.User), maphash.String(a.seed, b.User), nil
		s := b.Hash & (stripes - 1)
		if tail[s] == nil {
			head[s] = b
		} else {
			tail[s].next = b
		}
		tail[s] = b
	}
	for s, b := range head {
		p := &a.part[s]
		for b != nil {
			p.mu.Lock()
			if p.index != nil {
				p.touch(b)
			}
			for run := 0; run < maxRun && b != nil; run++ {
				b.Rec = a.bindLocked(p, b.User, b.place, b.Group, false)
				b.Group, b = int(b.Rec.group), b.next
			}
			p.mu.Unlock()
		}
	}
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

// SpendN is Charge on the record of user id, looked up or inserted.
func (a *Accountant) SpendN(id string, eps float64, n int) error {
	r, _, _ := a.Bind(id, -1)
	return a.Charge(r, id, eps, n)
}

// Spent returns the budget consumed by user id so far.
func (a *Accountant) Spent(id string) float64 {
	p := &a.part[Hash(id)&(stripes-1)]
	var r *Record
	p.mu.Lock()
	if p.index != nil {
		r, _ = p.find(id, maphash.String(a.seed, id))
	}
	p.mu.Unlock()
	if r == nil {
		return 0
	}
	return r.load()
}

// each calls fn for every record under its stripe's lock, stripe by
// stripe in insertion order. The id aliases the table's copy, which is
// never modified.
func (a *Accountant) each(fn func(id string, r *Record)) {
	for i := range a.part {
		p := &a.part[i]
		p.mu.Lock()
		for k := range p.n {
			r := p.rec(uint32(k))
			fn(p.key(r), r)
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
