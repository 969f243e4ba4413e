package checkpoint

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

type payload struct {
	Code  string
	Count int
	Ms    float64
}

func TestJournalRoundTrip(t *testing.T) {
	j, err := Open(t.TempDir(), "cfg-1")
	if err != nil {
		t.Fatal(err)
	}
	want := payload{Code: "BR", Count: 42, Ms: 123.4567890123}
	if err := j.Put("BR", want); err != nil {
		t.Fatal(err)
	}
	var got payload
	ok, err := j.Get("BR", &got)
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v", ok, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mangled payload: %+v != %+v", got, want)
	}
	// Missing record: false, no error.
	ok, err = j.Get("IT", &got)
	if err != nil || ok {
		t.Fatalf("Get(missing) = %v, %v; want false, nil", ok, err)
	}
}

func TestJournalKeyMismatchIgnored(t *testing.T) {
	dir := t.TempDir()
	j1, err := Open(dir, "cfg-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.Put("BR", payload{Code: "BR"}); err != nil {
		t.Fatal(err)
	}
	// A journal opened under a different configuration must not see
	// the record: replaying stale data would silently corrupt results.
	j2, err := Open(dir, "cfg-2")
	if err != nil {
		t.Fatal(err)
	}
	var got payload
	ok, err := j2.Get("BR", &got)
	if err != nil || ok {
		t.Fatalf("Get under wrong key = %v, %v; want false, nil", ok, err)
	}
	// The record is still there for its own configuration.
	ok, err = j1.Get("BR", &got)
	if err != nil || !ok || got.Code != "BR" {
		t.Fatalf("Get under own key = %+v, %v, %v; want BR, true, nil", got, ok, err)
	}
}

func TestJournalCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, "cfg")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BR.json"), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	var got payload
	if _, err := j.Get("BR", &got); err == nil {
		t.Fatal("corrupt record loaded without error")
	}
}

func TestJournalRejectsUnsafeNames(t *testing.T) {
	j, err := Open(t.TempDir(), "cfg")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "../evil", "a/b", "a.b", "a b"} {
		if err := j.Put(name, payload{}); err == nil {
			t.Errorf("Put(%q) accepted an unsafe name", name)
		}
	}
}

func TestOpenSweepsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "BR.json.1234.tmp")
	fresh := filepath.Join(dir, "US.json.5678.tmp")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Backdate the stale one past the sweep threshold; the fresh one
	// stands in for a sibling shard's in-flight write, which Open must
	// not delete.
	old := time.Now().Add(-staleTempAge - time.Minute)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, "cfg"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale temp file survived Open (err=%v)", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh temp file swept by Open: %v", err)
	}
}

func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	if err := WriteFileAtomic(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("new content"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new content" {
		t.Errorf("content = %q", got)
	}
	// No temp litter.
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.Contains(f.Name(), ".tmp") {
			t.Errorf("temp file left behind: %s", f.Name())
		}
	}
	if len(files) != 1 {
		t.Errorf("dir has %d files, want 1", len(files))
	}
}
