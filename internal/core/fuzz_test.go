package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// FuzzSpecJSON feeds arbitrary JSON to the task-spec decoder: unmarshal
// must never panic, every Validate rejection must wrap ErrBadSpec (the
// sentinel the tenant-create route maps to 400), and any spec that passes
// Validate must marshal to a fixed point — unmarshal ∘ marshal is the
// identity and validity is preserved, so specs logged in the WAL
// (RecTenantCreate) re-validate on recovery exactly as they did at
// creation.
func FuzzSpecJSON(f *testing.F) {
	for _, s := range []Spec{
		{Task: TaskMean, Eps: 1},
		{Task: TaskFrequency, Eps: 2, K: 8},
		{Task: TaskDistribution, Eps: 0.5},
		{Task: TaskVariance, Eps: 1, Eps0: 0.125},
	} {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"task":"mean","eps":1e309}`))
	f.Add([]byte(`{"task":[],"eps":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp Spec
		if err := json.Unmarshal(data, &sp); err != nil {
			return
		}
		if err := sp.Validate(); err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("Validate rejection does not wrap ErrBadSpec: %v", err)
			}
			return
		}
		out, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("valid spec does not marshal: %v", err)
		}
		var sp2 Spec
		if err := json.Unmarshal(out, &sp2); err != nil {
			t.Fatalf("marshaled spec does not unmarshal: %v", err)
		}
		if err := sp2.Validate(); err != nil {
			t.Fatalf("valid spec became invalid across a JSON round-trip: %v", err)
		}
		out2, err := json.Marshal(sp2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("spec marshal is not a fixed point:\n first %s\nsecond %s", out, out2)
		}
	})
}
