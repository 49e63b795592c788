package privacy

import (
	"errors"
	"sync"
	"testing"
)

func TestNewAccountantValidation(t *testing.T) {
	if _, err := NewAccountant(0); err == nil {
		t.Fatal("cap=0 accepted")
	}
}

func TestSpendWithinCap(t *testing.T) {
	a, _ := NewAccountant(1)
	if err := a.Spend("u1", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend("u1", 0.5); err != nil {
		t.Fatal(err)
	}
	if !a.Exhausted("u1") {
		t.Fatal("u1 should be exhausted")
	}
	if got := a.Spent("u1"); got != 1 {
		t.Fatalf("spent = %v", got)
	}
}

func TestSpendRejectsOverCap(t *testing.T) {
	a, _ := NewAccountant(1)
	if err := a.Spend("u1", 0.9); err != nil {
		t.Fatal(err)
	}
	err := a.Spend("u1", 0.2)
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
	if err := a.Spend("u1", 0); err == nil {
		t.Fatal("zero spend accepted")
	}
	if err := a.Spend("u1", -0.5); err == nil {
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
			if err := a.Spend(id, eps); err != nil {
				t.Fatalf("%d reports of %v: %v", reports, eps, err)
			}
		}
		if !a.Exhausted(id) {
			t.Fatalf("%d reports should exhaust the budget", reports)
		}
		if err := a.Spend(id, eps); err == nil {
			t.Fatalf("%d+1-th report accepted", reports)
		}
	}
}

func TestRemaining(t *testing.T) {
	a, _ := NewAccountant(2)
	a.Spend("u", 0.5)
	if got := a.Remaining("u"); got != 1.5 {
		t.Fatalf("remaining = %v", got)
	}
	if got := a.Remaining("fresh"); got != 2 {
		t.Fatalf("fresh remaining = %v", got)
	}
}

func TestUsers(t *testing.T) {
	a, _ := NewAccountant(1)
	a.Spend("u1", 0.1)
	a.Spend("u2", 0.1)
	a.Spend("u1", 0.1)
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
				if err := a.Spend("shared", 1); err != nil {
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
	if !a.Exhausted("u") {
		t.Fatal("u should be exhausted")
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
