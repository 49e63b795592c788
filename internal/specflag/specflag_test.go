package specflag

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
)

func newSet(t *testing.T, args []string) (*Flags, *flag.FlagSet) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := New(fs, core.NewSpec(core.MeanTask()))
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f, fs
}

func TestResolveFromFlags(t *testing.T) {
	f, _ := newSet(t, []string{"-task", "frequency", "-k", "7", "-eps", "2", "-eps0", "1", "-scheme", "emfstar"})
	sp, err := f.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sp.Task != core.TaskFrequency || sp.K != 7 || sp.Eps != 2 || sp.Eps0 != 1 {
		t.Fatalf("resolved %+v", sp)
	}
	if sp.Scheme != core.SchemeEMFStar.String() {
		t.Fatalf("scheme %q", sp.Scheme)
	}
}

func TestResolveFileWithOverrides(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(`{"task":"mean","eps":1,"eps0":0.25,"scheme":"emf"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Explicit -eps overrides the file; the file's scheme survives.
	f, _ := newSet(t, []string{"-spec", path, "-eps", "2", "-eps0", "0.5"})
	sp, err := f.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sp.Eps != 2 || sp.Eps0 != 0.5 {
		t.Fatalf("override lost: %+v", sp)
	}
	if sp.Scheme != core.SchemeEMF.String() {
		t.Fatalf("file scheme lost: %q", sp.Scheme)
	}
	// Serving flags land in the Serve section.
	f2, _ := newSet(t, []string{"-spec", path, "-shards", "4", "-epoch", "150ms"})
	sp2, err := f2.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sp2.Serve == nil || sp2.Serve.Shards != 4 || sp2.Serve.EpochMs != 150 {
		t.Fatalf("serve overrides lost: %+v", sp2.Serve)
	}
}

func TestResolveRejectsBadSpecs(t *testing.T) {
	f, _ := newSet(t, []string{"-task", "frequency"}) // K missing
	if _, err := f.Resolve(); err == nil {
		t.Fatal("invalid flag spec accepted")
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"task":"mean","eps":1,"typo":3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	f2, _ := newSet(t, []string{"-spec", path})
	if _, err := f2.Resolve(); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestAttackFlag(t *testing.T) {
	// A bare name selects a registry attack with defaults.
	f, _ := newSet(t, []string{"-attack", "gba"})
	sp, err := f.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sp.Attack == nil || sp.Attack.Name != "gba" {
		t.Fatalf("attack flag lost: %+v", sp.Attack)
	}
	// Inline JSON carries parameters; unknown fields are rejected.
	f2, _ := newSet(t, []string{"-attack", `{"name":"bba","dist":"gaussian"}`})
	sp2, err := f2.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sp2.Attack == nil || sp2.Attack.Dist != "gaussian" {
		t.Fatalf("inline attack lost: %+v", sp2.Attack)
	}
	f3, _ := newSet(t, []string{"-attack", `{"name":"bba","strength":9}`})
	if _, err := f3.Resolve(); err == nil {
		t.Fatal("unknown attack field accepted")
	}
	// An @file value loads a JSON attack spec.
	path := filepath.Join(t.TempDir(), "atk.json")
	if err := os.WriteFile(path, []byte(`{"name":"ramp","epochs":3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	f4, _ := newSet(t, []string{"-attack", "@" + path})
	sp4, err := f4.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sp4.Attack == nil || sp4.Attack.Name != "ramp" || sp4.Attack.Epochs != 3 {
		t.Fatalf("@file attack lost: %+v", sp4.Attack)
	}
	// -attack overrides a spec file's attack section.
	specPath := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(specPath, []byte(`{"task":"mean","eps":1,"attack":{"name":"bba"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	f5, _ := newSet(t, []string{"-spec", specPath, "-attack", "ima"})
	sp5, err := f5.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sp5.Attack == nil || sp5.Attack.Name != "ima" {
		t.Fatalf("attack override lost: %+v", sp5.Attack)
	}
	// A registry-unknown attack fails validation at Resolve.
	f6, _ := newSet(t, []string{"-attack", "quantum"})
	if _, err := f6.Resolve(); err == nil {
		t.Fatal("unknown attack name accepted")
	}
}

func TestAttackDefaultKeepsParameters(t *testing.T) {
	// A default spec's parameterized attack section must survive Resolve
	// untouched — the -attack flag default string carries only the name.
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	def := core.NewSpec(core.MeanTask(),
		core.WithAttack(attack.Spec{Name: "bba", Range: "[3C/4,C]", Dist: "gaussian"}))
	f := New(fs, def)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	sp, err := f.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sp.Attack == nil || sp.Attack.Dist != "gaussian" || sp.Attack.Range != "[3C/4,C]" {
		t.Fatalf("default attack parameters lost: %+v", sp.Attack)
	}
	// Changing the flag replaces the whole section.
	fs2 := flag.NewFlagSet("test", flag.ContinueOnError)
	f2 := New(fs2, def)
	if err := fs2.Parse([]string{"-attack", "ima"}); err != nil {
		t.Fatal(err)
	}
	sp2, err := f2.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sp2.Attack == nil || sp2.Attack.Name != "ima" || sp2.Attack.Dist != "" {
		t.Fatalf("flag override wrong: %+v", sp2.Attack)
	}
}

// dapbench's -attacks list mixes inline JSON, bare names and @files;
// the commas inside a JSON entry must not split it.
func TestSplitAttacks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "atk.json")
	if err := os.WriteFile(path, []byte(`{"name":"gba","frac_left":0.7}`), 0o644); err != nil {
		t.Fatal(err)
	}
	inline := `{"name":"bba","range":"[C/2,C]","dist":"uniform"}`
	got := SplitAttacks(inline + ", ima,,@" + path + " ")
	want := []string{inline, "ima", "@" + path}
	if len(got) != len(want) {
		t.Fatalf("split %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("split %q, want %q", got, want)
		}
	}
	var specs []*attack.Spec
	for _, s := range got {
		sp, err := ParseAttack(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		specs = append(specs, sp)
	}
	if specs[0].Name != "bba" || specs[0].Range != "[C/2,C]" || specs[0].Dist != "uniform" {
		t.Fatalf("inline entry parsed as %+v", specs[0])
	}
	if specs[1].Name != "ima" || specs[2].Name != "gba" || specs[2].FracLeft != 0.7 {
		t.Fatalf("name / @file entries parsed as %+v, %+v", specs[1], specs[2])
	}
	// A comma inside a JSON string, and an escaped quote before it, stay
	// inside the entry.
	if got := SplitAttacks(`{"name":"a\",b"},c`); len(got) != 2 || got[1] != "c" {
		t.Fatalf("quoted comma split: %q", got)
	}
}
