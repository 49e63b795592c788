package stream

import (
	"errors"
	"maps"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/privacy"
)

// orderTenant has three groups — ε 1, 1/2, 1/4 with 1, 2, 4 report slots.
func orderTenant(t *testing.T) *Tenant {
	t.Helper()
	tn, err := NewTenantSpec("order", core.Spec{
		Task: core.TaskMean, Eps: 1, Eps0: 0.25, Scheme: core.SchemeEMF.String(),
		Serve: &core.ServeSpec{Buckets: 16, Shards: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

// One IngestBatch decides its entries as the same entries sent one Ingest
// at a time do: a user's first valid entry binds them, a later entry for
// another group is refused, a second entry past the cap is refused, and an
// invalid entry binds nobody. Replay still admits a wrong-group entry.
func TestIngestBatchMatchesSequentialIngest(t *testing.T) {
	entries := []BatchEntry{
		{User: "new", Group: 0, Values: []float64{0.1}},
		{User: "other", Group: 2, Values: []float64{0.1, 0.2, 0.3}},
		{User: "new", Group: 1, Values: []float64{0.1}},
		{User: "capped", Group: 1, Values: []float64{0.1, 0.2}},
		{User: "capped", Group: 1, Values: []float64{0.3}},
		{User: "late", Group: 2, Values: []float64{math.NaN()}},
		{User: "late", Group: 1, Values: []float64{0.1}},
	}
	want := []error{nil, nil, ErrWrongGroup, nil, privacy.ErrBudgetExceeded, core.ErrDomain, nil}
	seq, batch := orderTenant(t), orderTenant(t)
	errs := batch.IngestBatch(entries)
	for i, e := range entries {
		err := seq.Ingest(e.User, e.Group, e.Values)
		if (err == nil) != (errs[i] == nil) || err != nil && err.Error() != errs[i].Error() {
			t.Fatalf("entry %d: IngestBatch %v, Ingest %v", i, errs[i], err)
		}
		if !errors.Is(err, want[i]) {
			t.Fatalf("entry %d: %v, want %v", i, err, want[i])
		}
	}
	if got, want := batch.acct.Export(), seq.acct.Export(); !maps.Equal(got, want) {
		t.Fatalf("batch ledger %v, sequential %v", got, want)
	}
	if got, want := batch.acct.Bindings(), seq.acct.Bindings(); !maps.Equal(got, want) || want["late"] != 1 {
		t.Fatalf("batch bindings %v, sequential %v", got, want)
	}
	if got, want := batch.Status().GroupReports, seq.Status().GroupReports; !slices.Equal(got, want) {
		t.Fatalf("batch reports per group %v, sequential %v", got, want)
	}

	// A logged record is replayed into a user a later Join rebound: the
	// charge is forced and the entry applied, where a live one is refused.
	for _, mode := range []ingestMode{ingestLive, replayCharge} {
		tn := orderTenant(t)
		joined, _ := tn.Join() // bound to group 0
		logged := []BatchEntry{
			{User: joined, Group: 1, Values: []float64{0.1}},
			{User: "x", Group: 2, Values: []float64{0.1}},
		}
		errs := make([]error, len(logged))
		tn.ingestStaged(logged, errs, mode)
		live := mode == ingestLive
		if errs[1] != nil || live != errors.Is(errs[0], ErrWrongGroup) || !live && errs[0] != nil {
			t.Fatalf("mode %d: errors %v", mode, errs)
		}
		spent, reports := tn.acct.Spent(joined), tn.Status().GroupReports[1]
		if live && (spent != 0 || reports != 0) || !live && (spent != 0.5 || reports != 1) {
			t.Fatalf("mode %d: wrong-group entry spent %v and left %v reports in group 1", mode, spent, reports)
		}
	}
}
