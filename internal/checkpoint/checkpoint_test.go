package checkpoint

import (
	"encoding/gob"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type payload struct {
	Day  int
	Vals []float64
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	in := payload{Day: 7, Vals: []float64{1, math.NaN(), math.Inf(1), -3.5}}
	if err := Save(path, "test", &in); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Load(path, "test", &out); err != nil {
		t.Fatal(err)
	}
	if out.Day != 7 || len(out.Vals) != 4 {
		t.Fatalf("round trip lost data: %+v", out)
	}
	// NaN must survive (the reason the format is gob, not JSON).
	if !math.IsNaN(out.Vals[1]) || !math.IsInf(out.Vals[2], 1) {
		t.Fatalf("non-finite values lost: %v", out.Vals)
	}
}

func TestSaveOverwritesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Save(path, "test", &payload{Day: 1}); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, "test", &payload{Day: 2}); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Load(path, "test", &out); err != nil {
		t.Fatal(err)
	}
	if out.Day != 2 {
		t.Fatalf("got day %d, want the newer checkpoint", out.Day)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want only the checkpoint", len(entries))
	}
}

func TestLoadRejectsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	var out payload

	garbage := filepath.Join(dir, "garbage")
	if err := os.WriteFile(garbage, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Load(garbage, "test", &out); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("garbage file: got %v, want ErrIncompatible", err)
	}

	wrongKind := filepath.Join(dir, "wrong-kind.ckpt")
	if err := Save(wrongKind, "other", &payload{}); err != nil {
		t.Fatal(err)
	}
	if err := Load(wrongKind, "test", &out); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("wrong kind: got %v, want ErrIncompatible", err)
	}

	// A well-formed file of the previous format version: its payload would
	// decode, so only the header's version stops it.
	older := filepath.Join(dir, "older.ckpt")
	f, err := os.Create(older)
	if err != nil {
		t.Fatal(err)
	}
	enc := gob.NewEncoder(f)
	if err := enc.Encode(header{Magic: magic, Version: Version - 1, Kind: "test"}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(&payload{Day: 3}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := Load(older, "test", &out); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("older version: got %v, want ErrIncompatible", err)
	}

	if err := Load(filepath.Join(dir, "missing.ckpt"), "test", &out); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestCheckReadsOnlyTheHeader pins Check: it refuses what Load refuses for
// its header, and accepts a file whose payload would not decode.
func TestCheckReadsOnlyTheHeader(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.ckpt")
	if err := Save(good, "test", &payload{Day: 1}); err != nil {
		t.Fatal(err)
	}
	if err := Check(good, "test"); err != nil {
		t.Fatalf("well-formed file: %v", err)
	}
	if err := Check(good, "other"); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("wrong kind: got %v, want ErrIncompatible", err)
	}

	write := func(name string, h header, tail []byte) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := gob.NewEncoder(f).Encode(h); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(tail); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	older := write("older.ckpt", header{Magic: magic, Version: Version - 1, Kind: "test"}, nil)
	if err := Check(older, "test"); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("older version: got %v, want ErrIncompatible", err)
	}
	truncated := write("truncated.ckpt", header{Magic: magic, Version: Version, Kind: "test"}, []byte("x"))
	if err := Check(truncated, "test"); err != nil {
		t.Fatalf("header-only check decoded the payload: %v", err)
	}
	var out payload
	if err := Load(truncated, "test", &out); err == nil {
		t.Fatal("Load accepted an undecodable payload")
	}
	if err := Check(filepath.Join(dir, "missing.ckpt"), "test"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestExists(t *testing.T) {
	dir := t.TempDir()
	if Exists(dir) {
		t.Fatal("directory reported as checkpoint file")
	}
	path := filepath.Join(dir, "run.ckpt")
	if Exists(path) {
		t.Fatal("missing file reported as existing")
	}
	if err := Save(path, "test", &payload{}); err != nil {
		t.Fatal(err)
	}
	if !Exists(path) {
		t.Fatal("saved checkpoint not found")
	}
}

// TestSaveFsyncsParentDir: after the atomic rename the parent directory must
// be fsynced, or a crash can lose a checkpoint Save already reported as
// durable. The fsync hook is injectable so both the happy path and the
// failure path are testable without a real crash.
func TestSaveFsyncsParentDir(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")

	orig := fsyncDir
	defer func() { fsyncDir = orig }()

	var synced []string
	fsyncDir = func(d string) error {
		synced = append(synced, d)
		return orig(d)
	}
	if err := Save(path, "test-kind", &payload{Day: 1}); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 || synced[0] != dir {
		t.Fatalf("directory fsync calls = %v, want exactly [%s]", synced, dir)
	}

	fsyncDir = func(string) error { return errors.New("injected fsync failure") }
	err := Save(path, "test-kind", &payload{Day: 2})
	if err == nil || !strings.Contains(err.Error(), "injected fsync failure") {
		t.Fatalf("Save with failing dir fsync = %v, want wrapped injected error", err)
	}
}
