package wirebin

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

// sampleEntries is a mixed batch: front-codable generated user ids,
// float payloads (mean reports), integral payloads (categories) and the
// float special cases that must survive bit-exactly.
func sampleEntries() []Entry {
	return []Entry{
		{User: "lg0", Group: 0, Values: []float64{0.25}},
		{User: "lg1", Group: 1, Values: []float64{-0.75, 1.25}},
		{User: "lg10", Group: 2, Values: []float64{3, 1, 4, 1}},
		{User: "lg11", Group: 2, Values: []float64{0, 0, 7, 2}},
		{User: "other", Group: 0, Values: []float64{math.NaN()}},
		{User: "lg12", Group: 1, Values: []float64{math.Inf(1), math.Inf(-1)}},
		{User: "z", Group: 0, Values: []float64{math.Copysign(0, -1)}},
	}
}

// entriesEqual compares entries with bit-exact float comparison.
func entriesEqual(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].User != b[i].User || a[i].Group != b[i].Group || len(a[i].Values) != len(b[i].Values) {
			return false
		}
		for j := range a[i].Values {
			if math.Float64bits(a[i].Values[j]) != math.Float64bits(b[i].Values[j]) {
				return false
			}
		}
	}
	return true
}

func TestRoundTrip(t *testing.T) {
	var enc Encoder
	var dec Decoder
	entries := sampleEntries()
	frame, err := enc.Encode("tenant-a", 42, entries)
	if err != nil {
		t.Fatal(err)
	}
	f, err := dec.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if f.Tenant != "tenant-a" || f.Seq != 42 {
		t.Fatalf("header round-trip: tenant=%q seq=%d", f.Tenant, f.Seq)
	}
	if !entriesEqual(entries, f.Entries) {
		t.Fatalf("entries round-trip mismatch:\n sent %+v\n got  %+v", entries, f.Entries)
	}
}

func TestEmptyTenantAndReuse(t *testing.T) {
	var enc Encoder
	var dec Decoder
	// Two decodes on one decoder: the second frame must fully replace the
	// first (entries/arena reuse). A user string belongs to its frame — a
	// copy taken before the next Decode is what a keeper holds on to — while
	// the tenant name is interned and stays valid.
	first, err := enc.Encode("t", 1, []Entry{{User: "alice", Group: 0, Values: []float64{1.5}}})
	if err != nil {
		t.Fatal(err)
	}
	f1, err := dec.Decode(first)
	if err != nil {
		t.Fatal(err)
	}
	if f1.Tenant != "t" || f1.Entries[0].User != "alice" {
		t.Fatalf("first decode: %+v", f1)
	}
	tenant, alice := f1.Tenant, strings.Clone(f1.Entries[0].User)
	second, err := enc.Encode("", 2, sampleEntries())
	if err != nil {
		t.Fatal(err)
	}
	f2, err := dec.Decode(second)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Tenant != "" || !entriesEqual(sampleEntries(), f2.Entries) {
		t.Fatalf("second decode reused state incorrectly: %+v", f2)
	}
	if tenant != "t" || alice != "alice" {
		t.Fatalf("retained strings corrupted by later decode: tenant %q, user copy %q", tenant, alice)
	}
}

func TestVarintPackingChoices(t *testing.T) {
	cases := []struct {
		vals []float64
		want bool
	}{
		{[]float64{0, 1, 4294967295}, true},
		{[]float64{4294967296}, false},           // ≥ 2^32
		{[]float64{1.5}, false},                  // fractional
		{[]float64{-1}, false},                   // negative
		{[]float64{math.Copysign(0, -1)}, false}, // -0 must keep its sign bit
		{[]float64{math.NaN()}, false},
		{[]float64{math.Inf(1)}, false},
	}
	for _, c := range cases {
		if got := packable(c.vals); got != c.want {
			t.Errorf("packable(%v) = %v, want %v", c.vals, got, c.want)
		}
	}
}

func TestDecodeRejects(t *testing.T) {
	var enc Encoder
	good, err := enc.Encode("t", 7, sampleEntries())
	if err != nil {
		t.Fatal(err)
	}
	var dec Decoder
	reject := func(name string, frame []byte, want error) {
		t.Helper()
		if _, err := dec.Decode(frame); err != want {
			t.Errorf("%s: err = %v, want %v", name, err, want)
		}
	}
	reject("empty", nil, ErrFrameTooShort)
	reject("short", good[:headerSize], ErrFrameTooShort)
	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	reject("magic", bad, ErrBadMagic)
	bad = append([]byte(nil), good...)
	bad[4] = 99
	reject("version", bad, ErrBadVersion)
	bad = append([]byte(nil), good...)
	bad[5] = 1
	reject("flags", bad, ErrCorrupt)
	bad = append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0xff
	reject("flipped body byte", bad, ErrBadCRC)
	reject("truncated", good[:len(good)-1], ErrBadCRC)
}

func TestEncodeRejects(t *testing.T) {
	var enc Encoder
	long := string(bytes.Repeat([]byte{'x'}, MaxUserLen+1))
	cases := []struct {
		name    string
		tenant  string
		entries []Entry
		want    error
	}{
		{"no entries", "t", nil, ErrCorrupt},
		{"empty user", "t", []Entry{{User: "", Group: 0, Values: []float64{1}}}, ErrCorrupt},
		{"no values", "t", []Entry{{User: "u", Group: 0}}, ErrCorrupt},
		{"negative group", "t", []Entry{{User: "u", Group: -1, Values: []float64{1}}}, ErrCorrupt},
		{"user too long", "t", []Entry{{User: long, Group: 0, Values: []float64{1}}}, ErrCorrupt},
		{"tenant too long", long, []Entry{{User: "u", Group: 0, Values: []float64{1}}}, ErrFrameTooLarge},
	}
	for _, c := range cases {
		if _, err := enc.Encode(c.tenant, 0, c.entries); err != c.want {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestFrontCodingDenseIDs(t *testing.T) {
	// A loadgen-style id stream must stay near one byte of suffix per
	// entry: 1000 sequential "lg<i>" users with one float each.
	entries := make([]Entry, 1000)
	for i := range entries {
		entries[i] = Entry{User: "lg" + strconv.Itoa(i), Group: 0, Values: []float64{1}}
	}
	var enc Encoder
	frame, err := enc.Encode("", 1, entries)
	if err != nil {
		t.Fatal(err)
	}
	if perEntry := float64(len(frame)) / float64(len(entries)); perEntry > 8 {
		t.Fatalf("dense id stream costs %.1f bytes/entry, want ≤ 8", perEntry)
	}
	var dec Decoder
	f, err := dec.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !entriesEqual(entries, f.Entries) {
		t.Fatal("front-coded stream round-trip mismatch")
	}
}

// TestDecodeSteadyStateAllocFree pins the zero-allocation decode
// contract: after the first frame warmed the arenas and interned the
// tenant name, decoding allocates nothing — user ids are never copied.
func TestDecodeSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; production builds stay alloc-free")
	}
	var enc Encoder
	frame, err := enc.Encode("tenant", 3, sampleEntries())
	if err != nil {
		t.Fatal(err)
	}
	var dec Decoder
	if _, err := dec.Decode(frame); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := dec.Decode(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Decode allocates %.1f times per frame, want 0", allocs)
	}
}

func BenchmarkFrameDecode(b *testing.B) {
	entries := make([]Entry, 200)
	for i := range entries {
		entries[i] = Entry{User: "lg" + strconv.Itoa(i), Group: i % 3,
			Values: []float64{0.25, -0.75, 1.5}[:1+i%3]}
	}
	var enc Encoder
	frame, err := enc.Encode("default", 1, entries)
	if err != nil {
		b.Fatal(err)
	}
	var dec Decoder
	if _, err := dec.Decode(frame); err != nil {
		b.Fatal(err)
	}
	var reports int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := dec.Decode(frame)
		if err != nil {
			b.Fatal(err)
		}
		reports += len(f.Entries)
	}
	_ = reports
}

func BenchmarkFrameEncode(b *testing.B) {
	entries := make([]Entry, 200)
	for i := range entries {
		entries[i] = Entry{User: "lg" + strconv.Itoa(i), Group: i % 3,
			Values: []float64{0.25, -0.75, 1.5}[:1+i%3]}
	}
	var enc Encoder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode("default", uint64(i), entries); err != nil {
			b.Fatal(err)
		}
	}
}
