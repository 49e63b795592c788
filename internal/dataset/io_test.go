package dataset

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/rng"
)

func TestCSVRoundTrip(t *testing.T) {
	d := Beta25(rng.New(1), 500)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	cr := csv.NewReader(&buf)
	cr.FieldsPerRecord = -1
	rows, err := cr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"name", d.Name, strconv.FormatFloat(d.RawLo, 'g', -1, 64), strconv.FormatFloat(d.RawHi, 'g', -1, 64)}
	if len(rows) != len(d.Values)+1 || len(rows[0]) != 4 {
		t.Fatalf("%d rows, header %q", len(rows), rows[0])
	}
	for i := range want {
		if rows[0][i] != want[i] {
			t.Fatalf("header %q, want %q", rows[0], want)
		}
	}
	for i, v := range d.Values {
		got, err := strconv.ParseFloat(rows[i+1][0], 64)
		if err != nil || len(rows[i+1]) != 1 || got != v {
			t.Fatalf("value %d: row %q, want %v", i, rows[i+1], v)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	d := Taxi(rng.New(2), 300)
	path := filepath.Join(t.TempDir(), "taxi.csv")
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := d.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("saved file differs from WriteCSV output")
	}
	if err := d.SaveFile(filepath.Join(t.TempDir(), "missing", "taxi.csv")); err == nil {
		t.Fatal("save into a missing directory succeeded")
	}
}
