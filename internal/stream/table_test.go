package stream_test

import (
	"errors"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/stream"
)

// The per-user table behind Tenant.Accountant(): one record per user
// holding binding and spend, found once per report. These tests pin what
// the merge of the three id-keyed maps must not lose.

// tableTenant has three groups — ε 1, 1/2, 1/4 with 1, 2, 4 report slots —
// and histograms coarse enough that any value in [-1,1] is valid.
func tableTenant(t *testing.T, expectedUsers int) *stream.Tenant {
	t.Helper()
	tn, err := stream.NewTenant("table", stream.Config{
		Spec: core.Spec{Task: core.TaskMean, Eps: 1, Eps0: 0.25,
			Scheme: core.SchemeEMF.String()},
		Buckets: 16, Shards: 4, ExpectedUsers: expectedUsers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

// TestIngestCopiesUserIDs: a wire may hand IngestBatch user strings laid
// over a buffer it reuses (the binary decoder does). The table must have
// copied what it keeps — ledger and bindings stay under the original ids
// after the buffer is overwritten.
func TestIngestCopiesUserIDs(t *testing.T) {
	tn := tableTenant(t, 0)
	buf := []byte("alice-0bob---1carol-2")
	alias := func(lo, hi int) string { return unsafe.String(&buf[lo], hi-lo) }
	entries := []stream.BatchEntry{
		{User: alias(0, 7), Group: 0, Values: []float64{0.1}},
		{User: alias(7, 14), Group: 1, Values: []float64{0.1, 0.2}},
		{User: alias(14, 21), Group: 2, Values: []float64{0.1}},
	}
	for i, err := range tn.IngestBatch(entries) {
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
	}
	for i := range buf {
		buf[i] = 'x'
	}
	want := map[string]float64{"alice-0": 1, "bob---1": 1, "carol-2": 0.25}
	if got := tn.Accountant().Export(); !maps.Equal(got, want) {
		t.Fatalf("ledger after the caller's buffer was overwritten: %v, want %v", got, want)
	}
	// The bindings are keyed by the original ids too: carol is still bound
	// to group 2 (and has budget left there), so group 1 refuses her.
	if err := tn.Ingest("carol-2", 1, []float64{0.1}); !errors.Is(err, stream.ErrWrongGroup) {
		t.Fatalf("rebinding carol: %v, want ErrWrongGroup", err)
	}
	if err := tn.Ingest("carol-2", 2, []float64{0.1}); err != nil {
		t.Fatalf("carol's second report: %v", err)
	}
	if st := tn.Status(); st.Reporters != 3 {
		t.Fatalf("reporters = %d, want 3", st.Reporters)
	}
}

// TestOnlySpendersAreReporters: a record created by a rejected entry — a
// wrong-group report, a joined user who never reported — is in the table
// but not in the ledger, the reporter count or the metrics' user count.
func TestOnlySpendersAreReporters(t *testing.T) {
	tn := tableTenant(t, 0)
	joined, _ := tn.Join() // bound to group 0, never reports
	if err := tn.Ingest("spender", 0, []float64{0.1}); err != nil {
		t.Fatal(err)
	}
	if err := tn.Ingest(joined, 1, []float64{0.1}); !errors.Is(err, stream.ErrWrongGroup) {
		t.Fatalf("joined user in another group: %v, want ErrWrongGroup", err)
	}
	acct := tn.Accountant()
	if got, want := acct.Export(), (map[string]float64{"spender": 1}); !maps.Equal(got, want) {
		t.Fatalf("ledger %v, want %v", got, want)
	}
	if users, spent := acct.Stats(); users != 1 || spent != 1 || acct.Users() != 1 || tn.Status().Reporters != 1 {
		t.Fatalf("stats users=%d spent=%g Users()=%d Reporters=%d, want 1 spender",
			users, spent, acct.Users(), tn.Status().Reporters)
	}
}

// TestSameUserConcurrentCharge runs under -race in `make race`: goroutines
// charging one user through their own handles to the same record.
func TestSameUserConcurrentCharge(t *testing.T) {
	// Same group: two goroutines race twice the user's slots one value at a
	// time; exactly the slots fit, and the spend ends at exactly the cap.
	t.Run("cap", func(t *testing.T) {
		tn := tableTenant(t, 0)
		grp := tn.Groups()[2]
		var accepted [2]int
		var wg sync.WaitGroup
		for w := range accepted {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < grp.Reports; i++ {
					if tn.Ingest("shared", grp.Index, []float64{0.1}) == nil {
						accepted[w]++
					}
				}
			}()
		}
		wg.Wait()
		if n := accepted[0] + accepted[1]; n != grp.Reports {
			t.Fatalf("%d single-value reports accepted, want exactly %d", n, grp.Reports)
		}
		if got := tn.Accountant().Spent("shared"); got != 1 {
			t.Fatalf("spent %v, want exactly the cap", got)
		}
		if got := tn.Status().GroupReports[grp.Index]; got != float64(grp.Reports) {
			t.Fatalf("histogram holds %v reports, want %d", got, grp.Reports)
		}
	})
	// Report → Join rebinds the id → report to the new group: the two
	// goroutines hold different groups' stripe locks while they charge the
	// same record. No charge may be lost or doubled, and between them they
	// offer twice the cap, so the spend must stop within one report of it.
	t.Run("rebind", func(t *testing.T) {
		interleaved := 0
		for round := 0; round < 50; round++ {
			tn, err := stream.NewTenant("rebind", stream.Config{
				Spec: core.Spec{Task: core.TaskMean, Eps: 1, Eps0: 1.0 / 16,
					Scheme: core.SchemeEMF.String()},
				Buckets: 16, Shards: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Groups 3 and 4: ε/8 with 8 slots, ε/16 with 16. The fourth Join
			// hands out u000003 for group 3; the user reports to group 4 first.
			const id = "u000003"
			old, now := 0, 0 // accepted single-value reports to group 4 and group 3
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := 0; i < 16; i++ {
					if tn.Ingest(id, 4, []float64{0.1}) == nil {
						old++
					}
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					tn.Join()
				}
				for i := 0; i < 8; i++ {
					if tn.Ingest(id, 3, []float64{0.1}) == nil {
						now++
					}
				}
			}()
			wg.Wait()
			spent := tn.Accountant().Spent(id)
			if want := float64(old)/16 + float64(now)/8; spent != want || spent > 1 {
				t.Fatalf("round %d: spent %v after %d old-group and %d new-group reports, want %v ≤ cap",
					round, spent, old, now, want)
			}
			if now < 8 && spent < 1-1.0/8 {
				t.Fatalf("round %d: a new-group report was refused at spend %v, a full ε/8 below the cap", round, spent)
			}
			rep := tn.Status().GroupReports
			if rep[4] != float64(old) || rep[3] != float64(now) {
				t.Fatalf("round %d: histograms hold %v, accepted %d and %d", round, rep, old, now)
			}
			if old > 0 && now > 0 {
				interleaved++
			}
		}
		t.Logf("%d of 50 rounds charged the record from both groups", interleaved)
	})
}

// TestFloodedStripeIngest: attackers choose their ids. Ids crafted to
// share the low six bits of the restart-stable stripe hash all land in one
// of the table's 64 stripes and one histogram stripe; placement inside the stripe uses
// a per-process seeded hash, so they must ingest within a small constant
// factor of random ids.
func TestFloodedStripeIngest(t *testing.T) {
	const n = 40000
	crafted := make([]string, 0, n)
	random := make([]string, 0, n)
	for i := 0; len(crafted) < n; i++ {
		id := "f" + itoa(i)
		if privacy.Hash(id)&63 == 43 {
			crafted = append(crafted, id)
		}
		if len(random) < n {
			random = append(random, "r"+itoa(i))
		}
	}
	ingest := func(ids []string) time.Duration {
		best := time.Duration(1 << 62)
		for attempt := 0; attempt < 3; attempt++ {
			tn := tableTenant(t, n)
			batch := make([]stream.BatchEntry, 0, 500)
			start := time.Now()
			for chunk := range slices.Chunk(ids, 500) {
				batch = batch[:0]
				for _, id := range chunk {
					batch = append(batch, stream.BatchEntry{User: id, Group: 2, Values: []float64{0.1}})
				}
				for _, err := range tn.IngestBatch(batch) {
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			best = min(best, time.Since(start))
			if got := tn.Accountant().Users(); got != n {
				t.Fatalf("%d users in the ledger, want %d", got, n)
			}
		}
		return best
	}
	base, flood := ingest(random), ingest(crafted)
	t.Logf("%d random ids %v, %d one-stripe ids %v", n, base, n, flood)
	if flood > 4*base {
		t.Fatalf("one-stripe ids took %v, random ids %v: more than 4×", flood, base)
	}
}

// BenchmarkIngestBatchNewUsers: every report is a new user's, so each
// entry inserts into the per-user table. 200-entry batches from every
// benchmark goroutine into one tenant pre-sized for 2^19 users; ids are 19
// bytes, written into a reused buffer the way the binary decoder hands
// them over. Comparing -cpu 1,2 with and without GOGC=off separates what
// the table costs the collector's marking from lock contention. Each
// iteration adds 200 users, so bound the run (-benchtime 2000x is 400 000
// users, the repository benchmark's scale).
func BenchmarkIngestBatchNewUsers(b *testing.B) {
	const batch, idLen = 200, 19
	tn, err := stream.NewTenant("new-users", stream.Config{
		Spec:          core.Spec{Task: core.TaskMean, Eps: 1, Eps0: 0.25},
		ExpectedUsers: 1 << 19, Shards: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	h := len(tn.Groups())
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		buf := make([]byte, batch*idLen)
		entries := make([]stream.BatchEntry, batch)
		vals := []float64{0.1}
		for pb.Next() {
			u := next.Add(1) * batch
			for j := range entries {
				id := buf[j*idLen : (j+1)*idLen]
				copy(id, "user-")
				for i, v := idLen-1, u+int64(j); i >= len("user-"); i, v = i-1, v/10 {
					id[i] = byte('0' + v%10)
				}
				entries[j] = stream.BatchEntry{User: unsafe.String(&id[0], idLen), Group: j % h, Values: vals}
			}
			for _, err := range tn.IngestBatch(entries) {
				if err != nil {
					b.Error(err)
					return
				}
			}
		}
	})
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/user")
}
