package checkpoint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalGet holds Get to its contract on whatever bytes sit in a
// record file: it never panics, it reports a record only when the
// envelope's key and name are the journal's and the payload decodes,
// a journal under another key never reports it, and both the payload
// it reports and the raw bytes survive a Put and a Get unchanged.
func FuzzJournalGet(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		j, err := Open(dir, "cfg")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "BR.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var got payload
		ok, err := j.Get("BR", &got)
		if ok && err != nil {
			t.Fatalf("Get = true, %v", err)
		}
		var rec envelope
		want := json.Unmarshal(data, &rec) == nil && rec.Key == "cfg" && rec.Name == "BR" &&
			json.Unmarshal(rec.Data, new(payload)) == nil
		if ok != want {
			t.Fatalf("Get = %v (err %v) on %q; want %v", ok, err, data, want)
		}
		other, err := Open(dir, "other")
		if err != nil {
			t.Fatal(err)
		}
		if ok, _ := other.Get("BR", new(payload)); ok {
			t.Fatalf("a journal under another key read %q", data)
		}

		if ok {
			if err := j.Put("BR", got); err != nil {
				t.Fatal(err)
			}
			var back payload
			if ok, err := j.Get("BR", &back); !ok || err != nil || back != got {
				t.Fatalf("payload %+v read back as %+v (%v, %v)", got, back, ok, err)
			}
		}
		if err := j.Put("BR", data); err != nil {
			t.Fatal(err)
		}
		var raw []byte
		if ok, err := j.Get("BR", &raw); !ok || err != nil || !bytes.Equal(raw, data) {
			t.Fatalf("bytes %q read back as %q (%v, %v)", data, raw, ok, err)
		}
	})
}
