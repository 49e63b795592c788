package main

import (
	"context"
	"math/rand/v2"
	"testing"

	"repro/internal/transport"
)

// TestIngestedSurvivesRotation is the regression test for the delivery-
// confirmation signal: the status route's window report totals reset when an
// epoch seals, so a poller using them can watch a confirmed delivery
// vanish mid-wait. The monotonic dap_stream_reports_ingested_total —
// what driveFrames and daploadgen poll — must keep every accepted
// report across a rotation.
func TestIngestedSurvivesRotation(t *testing.T) {
	base, closeFn, err := boot()
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()

	ctx := context.Background()
	client := transport.NewClient(base, nil).Tenant(transport.DefaultTenant)
	r := rand.New(rand.NewPCG(3, 4))
	const submits = 8
	var sent int
	for i := 0; i < submits; i++ {
		join, err := client.SubmitValue(ctx, r, 0.2)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		sent += join.Group.Reports
	}
	before, err := ingestedTotal(base)
	if err != nil {
		t.Fatal(err)
	}
	if before < float64(sent) {
		t.Fatalf("ingested metric %g below the %d reports sent", before, sent)
	}
	st, err := client.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if total := windowTotal(st); total < sent {
		t.Fatalf("window totals %d below the %d reports sent pre-rotation", total, sent)
	}

	// Two rotations age the reports out of the (span-1) window entirely:
	// the first seals them, the second replaces them with an empty epoch.
	// The second answers 409 — an empty window cannot estimate — but the
	// seal it reports still happened, which is all this test needs.
	if _, err := client.Rotate(ctx); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	_, _ = client.Rotate(ctx)

	// The window totals forget the delivery; the monotonic metric must not.
	st, err = client.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if total := windowTotal(st); total >= sent {
		t.Fatalf("window totals %d still cover the %d reports sent; rotation did not reset them (precondition of the regression)", total, sent)
	}
	after, err := ingestedTotal(base)
	if err != nil {
		t.Fatal(err)
	}
	if after < before {
		t.Fatalf("ingested metric dropped across rotation: %g → %g", before, after)
	}
}

func windowTotal(st *transport.StatusResponse) int {
	total := 0
	for _, n := range st.GroupReports {
		total += n
	}
	return total
}
