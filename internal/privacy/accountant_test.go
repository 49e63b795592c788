package privacy

import (
	"errors"
	"hash/maphash"
	"maps"
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestNewAccountantValidation(t *testing.T) {
	if _, err := NewAccountant(0); err == nil {
		t.Fatal("cap=0 accepted")
	}
}

func TestSpendWithinCap(t *testing.T) {
	a, _ := NewAccountant(1)
	if err := a.SpendN("u1", 0.5, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.SpendN("u1", 0.5, 1); err != nil {
		t.Fatal(err)
	}
	if got := a.Spent("u1"); got != 1 {
		t.Fatalf("spent = %v", got)
	}
}

func TestSpendRejectsOverCap(t *testing.T) {
	a, _ := NewAccountant(1)
	if err := a.SpendN("u1", 0.9, 1); err != nil {
		t.Fatal(err)
	}
	err := a.SpendN("u1", 0.2, 1)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	// The failed spend must not be recorded.
	if got := a.Spent("u1"); got != 0.9 {
		t.Fatalf("spent = %v, want 0.9", got)
	}
}

func TestSpendRejectsNonPositive(t *testing.T) {
	a, _ := NewAccountant(1)
	if err := a.SpendN("u1", 0, 1); err == nil {
		t.Fatal("zero spend accepted")
	}
	if err := a.SpendN("u1", -0.5, 1); err == nil {
		t.Fatal("negative spend accepted")
	}
}

// DAP grouping invariant: 2^t reports of ε/2^t compose to exactly ε.
func TestSequentialCompositionExactness(t *testing.T) {
	a, _ := NewAccountant(1)
	for _, reports := range []int{1, 2, 4, 8, 16} {
		id := string(rune('a' + reports))
		eps := 1.0 / float64(reports)
		for i := 0; i < reports; i++ {
			if err := a.SpendN(id, eps, 1); err != nil {
				t.Fatalf("%d reports of %v: %v", reports, eps, err)
			}
		}
		if got := a.Spent(id); math.Abs(got-1) > spendTol {
			t.Fatalf("%d reports spent %v, want the whole budget", reports, got)
		}
		if err := a.SpendN(id, eps, 1); err == nil {
			t.Fatalf("%d+1-th report accepted", reports)
		}
	}
}

// The budget a user has left is the cap less their spend: it fits one
// more charge of exactly that size and nothing beyond.
func TestRemaining(t *testing.T) {
	a, _ := NewAccountant(2)
	if err := a.SpendN("u", 0.5, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.SpendN("u", 1.5+1e-6, 1); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("charge past the remaining 1.5: %v", err)
	}
	if err := a.SpendN("u", 0.75, 2); err != nil {
		t.Fatalf("charge of the remaining 1.5: %v", err)
	}
	if err := a.SpendN("fresh", 2, 1); err != nil {
		t.Fatalf("fresh user's full cap: %v", err)
	}
}

func TestUsers(t *testing.T) {
	a, _ := NewAccountant(1)
	a.SpendN("u1", 0.1, 1)
	a.SpendN("u2", 0.1, 1)
	a.SpendN("u1", 0.1, 1)
	if got := a.Users(); got != 2 {
		t.Fatalf("users = %d", got)
	}
}

func TestConcurrentSpends(t *testing.T) {
	a, _ := NewAccountant(1000)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := a.SpendN("shared", 1, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := a.Spent("shared"); got != 800 {
		t.Fatalf("spent = %v, want 800", got)
	}
}

func TestSpendNAtomicity(t *testing.T) {
	a, _ := NewAccountant(1)
	// Four slots of 0.25 fit exactly.
	if err := a.SpendN("u", 0.25, 4); err != nil {
		t.Fatal(err)
	}
	if got := a.Spent("u"); got != 1 {
		t.Fatalf("spent = %v, want the whole budget", got)
	}
	// A batch that does not fit must leave the ledger untouched: no
	// partial spend survives a rejected upload.
	b, _ := NewAccountant(1)
	if err := b.SpendN("v", 0.5, 3); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	if got := b.Spent("v"); got != 0 {
		t.Fatalf("rejected batch recorded %v", got)
	}
	if err := b.SpendN("v", 0.5, 2); err != nil {
		t.Fatalf("exact batch rejected after failed one: %v", err)
	}
	if err := b.SpendN("v", 0.5, 0); err == nil {
		t.Fatal("zero-count batch accepted")
	}
}

func TestSpendNConcurrentNoOverspend(t *testing.T) {
	// 8 workers race 100 single-slot batches against a cap of 50: exactly
	// 50 must land regardless of interleaving.
	a, _ := NewAccountant(50)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = a.SpendN("shared", 1, 1)
			}
		}()
	}
	wg.Wait()
	if got := a.Spent("shared"); got != 50 {
		t.Fatalf("spent = %v, want 50", got)
	}
}

func TestCap(t *testing.T) {
	a, _ := NewAccountant(3)
	if a.Cap() != 3 {
		t.Fatal("Cap broken")
	}
}

// The table's handle API, as the streaming collector drives it: one Bind
// per report, charge and refund through the record.
func TestBindChargeRefund(t *testing.T) {
	a, _ := NewAccountant(1)
	a.Reserve(1 << 30) // bounded, and nothing allocated before the first user
	r, hash, bound := a.Bind("u", 2)
	if hash != Hash("u") || bound != 2 {
		t.Fatalf("Bind = hash %x group %d, want %x and 2", hash, bound, Hash("u"))
	}
	// A later report for another group finds the same record, still bound
	// to the first group; only Rebind moves it.
	if r2, _, bound := a.Bind("u", 0); r2 != r || bound != 2 {
		t.Fatalf("second Bind = %p group %d, want the same record %p bound to 2", r2, bound, r)
	}
	a.Rebind("u", 0)
	if _, _, bound := a.Bind("u", 2); bound != 0 {
		t.Fatalf("after Rebind the user is bound to %d, want 0", bound)
	}
	// A bound user who never spent is in the bindings, not in the ledger.
	if got := a.Bindings(); len(got) != 1 || got["u"] != 0 {
		t.Fatalf("bindings %v, want u→0", got)
	}
	if a.Users() != 0 || len(a.Export()) != 0 {
		t.Fatalf("unspent record counted: users %d ledger %v", a.Users(), a.Export())
	}
	if err := a.Charge(r, "u", 0.5, 2); err != nil {
		t.Fatal(err)
	}
	if err := a.Charge(r, "u", 0.5, 1); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("charge past the cap: %v", err)
	}
	if a.Spent("u") != 1 || a.Users() != 1 {
		t.Fatalf("spent %v users %d after a full charge", a.Spent("u"), a.Users())
	}
	// SpendN by id reaches the same record, and does not bind it.
	if err := a.SpendN("u", 0.5, 1); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("SpendN on the exhausted record: %v", err)
	}
	r.Refund(0.5, 2)
	r.Refund(0.5, 2) // clamps at zero
	if a.Spent("u") != 0 || a.Users() != 0 || len(a.Export()) != 0 {
		t.Fatalf("refunded record still in the ledger: %v", a.Export())
	}
	r.Force(0.75, 2) // replay does not ask the cap
	if got := a.Export(); got["u"] != 1.5 {
		t.Fatalf("forced spend: ledger %v", got)
	}
	// Import restores spends without touching bindings.
	b, _ := NewAccountant(1)
	b.Import(a.Export())
	if b.Spent("u") != 1.5 || len(b.Bindings()) != 0 {
		t.Fatalf("import: spent %v bindings %v", b.Spent("u"), b.Bindings())
	}
}

// Handles taken before the table grows — the index doubling several times,
// new record and id chunks — still point at their users' records, and
// charges through them while the table grows land exactly.
func TestHandlesSurviveGrowth(t *testing.T) {
	a, _ := NewAccountant(1 << 20)
	const held, workers, charges = 64, 4, 200
	handles := make([]*Record, held)
	for i := range handles {
		handles[i], _, _ = a.Bind("held-"+strconv.Itoa(i), i%3)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // grows every stripe's index and chunks under the charges
		defer wg.Done()
		for i := range 40000 {
			a.Bind("new-"+strconv.Itoa(i), 0)
		}
	}()
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range charges {
				for i, r := range handles {
					if err := a.Charge(r, "held-"+strconv.Itoa(i), 0.125, 1); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	want := 0.125 * workers * charges
	for i, r := range handles {
		id := "held-" + strconv.Itoa(i)
		if r2, _, bound := a.Bind(id, 2); r2 != r || bound != i%3 {
			t.Fatalf("%s: Bind after growth = %p bound %d, want the handle %p bound %d", id, r2, bound, r, i%3)
		}
		if got := a.Spent(id); got != want {
			t.Fatalf("%s spent %v, want %v", id, got, want)
		}
	}
	if users, _ := a.Stats(); users != held {
		t.Fatalf("%d spenders, want %d", users, held)
	}
}

// An id far past any length field a record could hold is kept whole: it
// binds, charges and round-trips through Export/Import and
// Bindings/Rebind unchanged.
func TestLongIDRoundTrip(t *testing.T) {
	a, _ := NewAccountant(1)
	long := strings.Repeat("0123456789", 7000) // 70 000 bytes
	other := long[:69999] + "x"
	r, hash, bound := a.Bind(long, 3)
	if hash != Hash(long) || bound != 3 {
		t.Fatalf("Bind = hash %x group %d", hash, bound)
	}
	if err := a.Charge(r, long, 0.5, 1); err != nil {
		t.Fatal(err)
	}
	a.Rebind(other, 1)
	if a.Spent(other) != 0 || a.Spent(long) != 0.5 || a.Spent(long[:69999]) != 0 {
		t.Fatalf("spends: long %v, other %v", a.Spent(long), a.Spent(other))
	}
	ledger, binds := a.Export(), a.Bindings()
	if len(ledger) != 1 || ledger[long] != 0.5 {
		t.Fatalf("ledger has %d entries, long id at %v", len(ledger), ledger[long])
	}
	if len(binds) != 2 || binds[long] != 3 || binds[other] != 1 {
		t.Fatalf("bindings: %d entries, long→%d other→%d", len(binds), binds[long], binds[other])
	}
	b, _ := NewAccountant(1)
	b.Import(ledger)
	for id, g := range binds {
		b.Rebind(id, g)
	}
	if !maps.Equal(b.Export(), ledger) || !maps.Equal(b.Bindings(), binds) {
		t.Fatal("the long id did not round-trip through Export/Import and Bindings/Rebind")
	}
	if err := b.SpendN(long, 0.5, 2); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("restored long id took a spend past the cap: %v", err)
	}
}

// Binding a new user allocates nothing of its own, one at a time through
// Bind or a batch at a time through BindBatch: records and ids go into
// chunks shared by hundreds of users. A batch of known users allocates
// nothing at all.
func TestBindFreshAllocFree(t *testing.T) {
	const runs, batch = 20, 1000
	ids := make([]string, (runs+1)*batch) // built outside the measurement
	for i := range ids {
		ids[i] = "user-" + strconv.Itoa(1e12+i)
	}
	bs := make([]Binding, batch)
	at := func(k int) *Binding { return &bs[k] }
	for _, viaBatch := range []bool{false, true} {
		a, _ := NewAccountant(1)
		a.Reserve(len(ids))
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			if viaBatch {
				for k := range bs {
					bs[k] = Binding{User: ids[next+k]}
				}
				a.BindBatch(batch, at)
			} else {
				for _, id := range ids[next : next+batch] {
					a.Bind(id, 0)
				}
			}
			next += batch
		})
		if perUser := allocs / batch; perUser >= 0.05 {
			t.Fatalf("batch=%v: %.3f allocations per new user, want < 0.05", viaBatch, perUser)
		}
		if n := len(a.Bindings()); n != len(ids) {
			t.Fatalf("batch=%v: %d users bound, want %d", viaBatch, n, len(ids))
		}
		if viaBatch { // bs still holds the last batch: all known now
			if allocs := testing.AllocsPerRun(runs, func() { a.BindBatch(batch, at) }); allocs != 0 {
				t.Fatalf("a batch of known users allocates %v times, want 0", allocs)
			}
		}
	}
}

// A seeded random sequence of every table operation leaves the table
// equal to a plain-map reference: ledger, bindings, stats and spends. The
// universe mixes short and long ids and is large enough to grow every
// stripe's index and chunks several times.
func TestTableMatchesMapReference(t *testing.T) {
	const capEps = 4.0
	rnd := rand.New(rand.NewPCG(30, 1))
	ids := make([]string, 6000)
	for i := range ids {
		ids[i] = "id" + strconv.Itoa(i)
		if i%97 == 0 {
			ids[i] += strings.Repeat("~", maxPacked+rnd.IntN(500))
		}
	}
	a, _ := NewAccountant(capEps)
	spent := map[string]float64{}
	group := map[string]int{}
	handle := map[string]*Record{}
	bind := func(id string, g int, rebind bool) int {
		if _, seen := group[id]; !seen {
			group[id] = -1
		}
		if g >= 0 && (rebind || group[id] < 0) {
			group[id] = g
		}
		return group[id]
	}
	for op := range 60000 {
		id := ids[rnd.IntN(len(ids))]
		eps := []float64{0.125, 0.25, 0.5, 1}[rnd.IntN(4)]
		n := 1 + rnd.IntN(4)
		switch rnd.IntN(6) {
		case 0, 1:
			g := rnd.IntN(5) - 1
			r, _, bound := a.Bind(id, g)
			if want := bind(id, g, false); bound != want {
				t.Fatalf("op %d: Bind(%.12s, %d) bound to %d, want %d", op, id, g, bound, want)
			}
			if h, ok := handle[id]; ok && h != r {
				t.Fatalf("op %d: Bind(%.12s) returned a new record", op, id)
			}
			handle[id] = r
		case 2:
			g := rnd.IntN(4)
			a.Rebind(id, g)
			bind(id, g, true)
		case 3:
			r, ok := handle[id]
			if !ok {
				continue
			}
			err := a.Charge(r, id, eps, n)
			if next := spent[id] + eps*float64(n); next <= capEps+spendTol {
				spent[id] = next
				if err != nil {
					t.Fatalf("op %d: charge rejected at %v: %v", op, spent[id], err)
				}
			} else if !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("op %d: charge past the cap: %v", op, err)
			}
		case 4:
			if r, ok := handle[id]; ok {
				r.Refund(eps, n)
				spent[id] = max(spent[id]-eps*float64(n), 0)
			}
		case 5:
			if r, ok := handle[id]; ok {
				r.Force(eps, n)
				spent[id] += eps * float64(n)
			}
		}
	}
	ledger, binds := map[string]float64{}, map[string]int{}
	var total float64
	for id, v := range spent {
		if v > 0 {
			ledger[id] = v
			total += v
		}
	}
	for id, g := range group {
		if g >= 0 {
			binds[id] = g
		}
	}
	if got := a.Export(); !maps.Equal(got, ledger) {
		t.Fatalf("ledger: %d entries, reference %d", len(got), len(ledger))
	}
	if got := a.Bindings(); !maps.Equal(got, binds) {
		t.Fatalf("bindings: %d entries, reference %d", len(got), len(binds))
	}
	if users, sum := a.Stats(); users != len(ledger) || sum != total {
		t.Fatalf("Stats = %d users, %v spent; reference %d, %v", users, sum, len(ledger), total)
	}
	for _, id := range ids {
		if a.Spent(id) != spent[id] {
			t.Fatalf("Spent(%.12s) = %v, reference %v", id, a.Spent(id), spent[id])
		}
	}
}

// A record is 16 bytes: spend bits, id reference and length, group.
func TestRecordSize(t *testing.T) {
	var r Record
	if size := unsafe.Sizeof(r); size != 16 {
		t.Fatalf("Record is %d bytes, want 16", size)
	}
}

// bindTrace is what a table's binds leave behind: every record's id and
// group, stripe by stripe in insertion order.
func bindTrace(a *Accountant) []string {
	var out []string
	a.each(func(id string, r *Record) { out = append(out, id+"→"+strconv.Itoa(int(r.group))) })
	return out
}

// BindBatch returns, position by position, what sequential Binds of the
// same entries return, and numbers every stripe's records the same way.
// The batches repeat ids, give one id two groups, pass group −1, carry ids
// past maxPacked, make the first insert into fresh stripes (the first
// batch meets no index at all), grow indexes in the middle of a stripe's
// run, and flood one stripe with 300 entries, past maxRun.
func TestBindBatchMatchesBind(t *testing.T) {
	rnd := rand.New(rand.NewPCG(33, 1))
	ids := make([]string, 3000)
	for i := range ids {
		ids[i] = "b" + strconv.Itoa(i)
		if i%89 == 0 {
			ids[i] += strings.Repeat("#", maxPacked+rnd.IntN(300))
		}
	}
	var flood []string // 300 new ids in stripe 21
	for i := 0; len(flood) < 300; i++ {
		if id := "f" + strconv.Itoa(i); Hash(id)&(stripes-1) == 21 {
			flood = append(flood, id)
		}
	}
	batch, seq := newAccountant(t), newAccountant(t)
	check := func(round int, bs []Binding) {
		t.Helper()
		want := make([]Binding, len(bs))
		for k, b := range bs {
			want[k] = Binding{User: b.User, Group: b.Group}
			want[k].Rec, want[k].Hash, want[k].Group = seq.Bind(b.User, b.Group)
		}
		batch.BindBatch(len(bs), func(k int) *Binding { return &bs[k] })
		recs := map[string]*Record{}
		for k, b := range bs {
			if b.Hash != want[k].Hash || b.Group != want[k].Group {
				t.Fatalf("round %d entry %d (%.12s): BindBatch gave hash %x group %d, Bind %x group %d",
					round, k, b.User, b.Hash, b.Group, want[k].Hash, want[k].Group)
			}
			if r, ok := recs[b.User]; ok && r != b.Rec || b.Rec == nil {
				t.Fatalf("round %d entry %d (%.12s): record %p, earlier %p", round, k, b.User, b.Rec, r)
			}
			recs[b.User] = b.Rec
		}
		if got, want := bindTrace(batch), bindTrace(seq); !slices.Equal(got, want) {
			t.Fatalf("round %d: stripes hold %d records in another order than sequential Binds' %d", round, len(got), len(want))
		}
	}
	for round := range 120 {
		var bs []Binding
		switch {
		case round == 40:
			for _, id := range flood {
				bs = append(bs, Binding{User: id, Group: rnd.IntN(5) - 1})
			}
		default:
			for range 1 + rnd.IntN([]int{1, 8, 400}[round%3]) {
				id := ids[rnd.IntN(len(ids))]
				bs = append(bs, Binding{User: id, Group: rnd.IntN(5) - 1})
				if rnd.IntN(8) == 0 { // the same id again, maybe for another group
					bs = append(bs, Binding{User: id, Group: rnd.IntN(5) - 1})
				}
			}
		}
		check(round, bs)
	}
}

// stripeID returns id i of a family of ids in stripe s: a decimal number
// and one last byte, picked so that FNV-1a lands the id in s. Only the low
// six bits of a byte reach the stripe, so '@'..DEL reach every stripe.
func stripeID(i int, s uint64) string {
	const fnvPrime = 1099511628211
	pre := "c" + strconv.Itoa(i)
	h, c := Hash(pre), byte('@')
	for ((h^uint64(c))*fnvPrime)&(stripes-1) != s {
		c++
	}
	return pre + string(rune(c))
}

// tagCollisions returns up to three pairs of ids in stripe s whose seeded
// hashes agree on the 32 bits that pick the home slot and the tag in a
// 16-slot index, so that a probe there tells a pair apart only by its ids.
// Placement is seeded, so they are found by brute force against a's own
// seed: 2^19 ids hold 32 such pairs in expectation.
func tagCollisions(a *Accountant, s uint64) [][2]string {
	const low = minIndex - 1
	keys := make([]uint64, 1<<19)
	for i := range keys {
		h := maphash.String(a.seed, stripeID(i, s))
		keys[i] = (h&low|h>>32&^low)<<32 | uint64(i)
	}
	slices.Sort(keys)
	var pairs [][2]string
	for i := 1; i < len(keys) && len(pairs) < 3; i++ {
		if keys[i]>>32 == keys[i-1]>>32 {
			pairs = append(pairs, [2]string{stripeID(int(uint32(keys[i-1])), s), stripeID(int(uint32(keys[i])), s)})
		}
	}
	return pairs
}

// Ids that share a stripe, a home slot and an index tag each resolve to a
// record of their own, and none is inserted twice, whether they are bound
// in one BindBatch run, whose first pass reads their home slot empty
// before the run's first insert fills it, in a run the index grows in the
// middle of, or by sequential Binds.
func TestTagCollisions(t *testing.T) {
	const s = 5
	seeded := newAccountant(t)
	pairs := tagCollisions(seeded, s)
	if len(pairs) == 0 {
		t.Fatal("no pair of 2^19 ids shares a home slot and a tag")
	}
	fresh := func() *Accountant {
		a := newAccountant(t)
		a.seed = seeded.seed
		return a
	}
	// fillers binds n ids of stripe s whose home slots differ from the
	// pairs' in a 16-slot index.
	fillers := func(a *Accountant, n int) {
		homes := map[uint64]bool{}
		for _, pr := range pairs {
			homes[maphash.String(a.seed, pr[0])&(minIndex-1)] = true
		}
		for i := -1; n > 0; i-- {
			if id := stripeID(i, s); !homes[maphash.String(a.seed, id)&(minIndex-1)] {
				a.Bind(id, 0)
				n--
			}
		}
	}
	var batch []Binding
	for range 2 {
		for _, pr := range pairs {
			batch = append(batch, Binding{User: pr[0], Group: 1}, Binding{User: pr[1], Group: 2})
		}
	}
	bindBatch := func(a *Accountant) {
		bs := slices.Clone(batch)
		a.BindBatch(len(bs), func(k int) *Binding { return &bs[k] })
		for k, b := range bs {
			if first := bs[k%(2*len(pairs))]; b.Rec != first.Rec || b.Group != first.Group {
				t.Fatalf("entry %d (%q): record %p group %d, its first entry %p group %d", k, b.User, b.Rec, b.Group, first.Rec, first.Group)
			}
		}
	}
	// check charges every pair's ids differently: two ids sharing a record
	// would both read the sum.
	check := func(how string, a *Accountant, records, slots int) {
		t.Helper()
		p := &a.part[s]
		if len(p.index) != slots {
			t.Fatalf("%s: index of %d slots, want %d", how, len(p.index), slots)
		}
		for _, pr := range pairs {
			h0, h1 := maphash.String(a.seed, pr[0]), maphash.String(a.seed, pr[1])
			if slots == minIndex && (h0^h1)&(minIndex-1) != 0 || p.entry(0, h0) != p.entry(0, h1) {
				t.Fatalf("%s: %q and %q do not share a home slot and a tag", how, pr[0], pr[1])
			}
		}
		for _, pr := range pairs {
			for k, id := range pr {
				r, _, bound := a.Bind(id, -1)
				if bound != k+1 || p.key(r) != id {
					t.Fatalf("%s: %q resolves to the record of %q, bound to %d", how, id, p.key(r), bound)
				}
				if err := a.Charge(r, id, 0.25*float64(k+1), 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, pr := range pairs {
			for k, id := range pr {
				if got := a.Spent(id); got != 0.25*float64(k+1) {
					t.Fatalf("%s: %q spent %v, want %v", how, id, got, 0.25*float64(k+1))
				}
			}
		}
		if p.n != records {
			t.Fatalf("%s: stripe holds %d records, want %d", how, p.n, records)
		}
	}

	a := fresh()
	fillers(a, 1) // the run's first pass needs an index to read
	bindBatch(a)
	check("one run", a, 1+2*len(pairs), minIndex)

	a = fresh()
	fillers(a, minIndex*3/4-1) // the run's first insert fills the index to 3/4, the next one grows it
	bindBatch(a)
	check("grown", a, minIndex*3/4-1+2*len(pairs), 2*minIndex)

	a = fresh()
	for _, b := range batch {
		a.Bind(b.User, b.Group)
	}
	check("sequential", a, 2*len(pairs), minIndex)
}

func newAccountant(t testing.TB) *Accountant {
	a, err := NewAccountant(1)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// benchBind inserts 200 new 19-byte ids per iteration, written into a
// reused buffer, through bind, into a table pre-sized for 2^19 users and
// filled with 450 000 of them before the timer starts: the index and the
// records of a table that size miss the caches, as the collector's do.
// Each iteration adds 200 users, so bound the run (-benchtime 2500x).
func benchBind(b *testing.B, bind func(a *Accountant, bs []Binding)) {
	const batch, idLen, filled = 200, 19, 450_000
	a := newAccountant(b)
	a.Reserve(1 << 19)
	buf := make([]byte, batch*idLen)
	bs := make([]Binding, batch)
	fill := func(first int) {
		for j := range bs {
			id := buf[j*idLen : (j+1)*idLen]
			copy(id, "user-")
			for d, v := idLen-1, first+j; d >= len("user-"); d, v = d-1, v/10 {
				id[d] = byte('0' + v%10)
			}
			bs[j] = Binding{User: unsafe.String(&id[0], idLen), Group: j % 8}
		}
	}
	for first := 0; first < filled; first += batch {
		fill(first)
		a.BindBatch(len(bs), func(k int) *Binding { return &bs[k] })
	}
	b.ReportAllocs()
	for first := filled; b.Loop(); first += batch {
		fill(first)
		bind(a, bs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/user")
}

func BenchmarkBindBatch(b *testing.B) {
	benchBind(b, func(a *Accountant, bs []Binding) {
		a.BindBatch(len(bs), func(k int) *Binding { return &bs[k] })
	})
}

func BenchmarkBind(b *testing.B) {
	benchBind(b, func(a *Accountant, bs []Binding) {
		for k := range bs {
			a.Bind(bs[k].User, bs[k].Group)
		}
	})
}
