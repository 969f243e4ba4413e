// Package checkpoint persists campaign progress across interruptions.
// The paper's measurement ran for weeks against a churning residential
// proxy network; a crash or SIGKILL must not discard every completed
// country. A Journal stores one JSON record per completed unit of work
// (the campaign uses country codes), keyed by a caller-supplied
// configuration hash so a journal written under one configuration can
// never be replayed into a campaign with different parameters.
//
// Records are written atomically (temp file in the same directory +
// rename), so a reader can never observe a truncated record: an
// interrupt mid-write leaves at worst an orphaned .tmp file, which
// Open sweeps away once it is old enough to be debris rather than a
// live sibling shard's in-flight write: disjoint shards of one campaign
// may share a journal directory, since each writes only its own
// countries' records. The same WriteFileAtomic helper backs the
// worldstudy CSV export for the same reason.
package checkpoint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// staleTempAge is how old a .tmp file must be before Open sweeps it.
// Temp files live for one call (written, then renamed into place), so
// anything past this age is debris from a crash. Sweeping
// unconditionally would race with a live sibling: disjoint shards may
// share one journal directory, and a shard opening the journal must
// not delete a temp file another shard is about to rename into place.
const staleTempAge = 10 * time.Minute

// Journal is a directory of atomically-written JSON records, all
// bound to one configuration key. Safe for concurrent use.
type Journal struct {
	dir string
	key string

	mu sync.Mutex
}

// envelope is the on-disk record framing: the configuration key
// travels inside every record, so a record copied between directories
// (or left over from an older configuration in the same directory)
// is detected and ignored rather than silently replayed.
type envelope struct {
	// Key is the configuration hash the record was written under.
	Key string `json:"key"`
	// Name is the record name (the campaign's country code).
	Name string `json:"name"`
	// Data is the caller's payload.
	Data json.RawMessage `json:"data"`
}

// Open prepares a journal in dir for records keyed by key, creating
// the directory when missing and sweeping stale temp files left by an
// interrupted write. Fresh temp files survive: they may belong to a
// sibling shard that is writing right now.
func Open(dir, key string) (*Journal, error) {
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: empty journal directory")
	}
	if key == "" {
		return nil, fmt.Errorf("checkpoint: empty configuration key")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			if info, ierr := e.Info(); ierr == nil && time.Since(info.ModTime()) >= staleTempAge {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	return &Journal{dir: dir, key: key}, nil
}

// path maps a record name to its file. Names are restricted to a
// conservative character set so they cannot traverse out of dir.
func (j *Journal) path(name string) (string, error) {
	if name == "" {
		return "", fmt.Errorf("checkpoint: empty record name")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return "", fmt.Errorf("checkpoint: record name %q contains %q", name, r)
		}
	}
	return filepath.Join(j.dir, name+".json"), nil
}

// Put journals v under name, atomically replacing any previous record.
func (j *Journal) Put(name string, v any) error {
	path, err := j.path(name)
	if err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint: marshaling %q: %w", name, err)
	}
	rec, err := json.Marshal(envelope{Key: j.key, Name: name, Data: data})
	if err != nil {
		return fmt.Errorf("checkpoint: marshaling %q: %w", name, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := WriteFileAtomic(path, rec, 0o644); err != nil {
		return fmt.Errorf("checkpoint: writing %q: %w", name, err)
	}
	return nil
}

// Get loads the record journaled under name into v. It returns false
// (and no error) when no record exists or when the stored record was
// written under a different configuration key — a stale record is the
// same as no record.
func (j *Journal) Get(name string, v any) (bool, error) {
	path, err := j.path(name)
	if err != nil {
		return false, err
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("checkpoint: reading %q: %w", name, err)
	}
	var rec envelope
	if err := json.Unmarshal(data, &rec); err != nil {
		return false, fmt.Errorf("checkpoint: record %q corrupt: %w", name, err)
	}
	if rec.Key != j.key || rec.Name != name {
		return false, nil
	}
	if err := json.Unmarshal(rec.Data, v); err != nil {
		return false, fmt.Errorf("checkpoint: record %q payload: %w", name, err)
	}
	return true, nil
}

// WriteFileAtomic writes data to path via a temp file in the same
// directory plus rename, so a crash or interrupt can never leave a
// truncated file at path: readers see either the old content or the
// complete new content.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".*.tmp")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmpName, perm); err != nil {
		return err
	}
	return os.Rename(tmpName, path)
}
