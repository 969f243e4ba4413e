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
// live sibling shard's in-flight write. The same WriteFileAtomic helper backs the
// worldstudy CSV export for the same reason.
//
// The journal doubles as a work-claim protocol for sharded campaigns
// (Claim/Release): N processes sharing one journal directory race to
// claim each unit of work, and the filesystem guarantees exactly one
// winner per name — a claim is created with os.Link, which atomically
// either installs the fully-written claim file or fails with EEXIST.
// Claims are keyed like records, and Open sweeps claims left by a
// different configuration; one directory therefore serves one
// configuration at a time (concurrent shards of the SAME campaign are
// the supported case, and what the claim protocol exists for).
package checkpoint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// staleTempAge is how old a .tmp file must be before Open sweeps it.
// Temp files live for one call (written, then renamed or linked into
// place), so anything past this age is debris from a crash. Sweeping
// unconditionally would race with a live sibling: sharded campaigns
// have N processes sharing one journal directory, and a shard opening
// the journal must not delete a temp file another shard is about to
// rename into place.
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
			continue
		}
		// Sweep claims left by a different configuration (or corrupted
		// by something other than this package — claims are created
		// fully written, so a well-formed writer never leaves a partial
		// one). Claims from the CURRENT key survive: they are how a
		// restarted shard recognizes its own in-progress work and how
		// sibling shards keep avoiding it.
		if strings.HasSuffix(e.Name(), claimSuffix) {
			p := filepath.Join(dir, e.Name())
			data, err := os.ReadFile(p)
			if err != nil {
				continue
			}
			var rec claimRecord
			if json.Unmarshal(data, &rec) != nil || rec.Key != key {
				os.Remove(p)
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

// claimSuffix is the file suffix of claim files. It is not ".json",
// so Entries never confuses a claim with a completed record.
const claimSuffix = ".claim"

// claimRecord is the on-disk claim payload.
type claimRecord struct {
	// Key is the configuration hash the claim was taken under.
	Key string `json:"key"`
	// Name is the claimed unit of work.
	Name string `json:"name"`
	// Owner identifies the claiming process (e.g. "shard-2-of-3").
	Owner string `json:"owner"`
}

// claimPath maps a name to its claim file.
func (j *Journal) claimPath(name string) (string, error) {
	p, err := j.path(name)
	if err != nil {
		return "", err
	}
	return strings.TrimSuffix(p, ".json") + claimSuffix, nil
}

// Claim attempts to take ownership of name for owner. It returns true
// when owner now holds the claim — either because this call won it or
// because owner already held it (so a restarted shard re-claims its
// own work) — and false when another owner holds it. The claim is
// installed with os.Link from a fully-written temp file, so the
// create-with-content step is atomic across processes: concurrent
// claimants race on the link and the filesystem picks exactly one
// winner; losers read the winner's claim, never a partial file.
//
// Claims deliberately survive completion of the work: a claim marks
// "this name belongs to owner's dataset", which is what stops an
// overlapping shard from restoring the finished journal record into
// its own output. Release only on failure, when the work should
// become claimable again.
func (j *Journal) Claim(name, owner string) (bool, error) {
	if owner == "" {
		return false, fmt.Errorf("checkpoint: empty claim owner")
	}
	path, err := j.claimPath(name)
	if err != nil {
		return false, err
	}
	data, err := json.Marshal(claimRecord{Key: j.key, Name: name, Owner: owner})
	if err != nil {
		return false, fmt.Errorf("checkpoint: marshaling claim %q: %w", name, err)
	}
	// A released claim can reappear between our failed link and the
	// read; retry a few times rather than report a phantom holder.
	for attempt := 0; attempt < 5; attempt++ {
		tmp, err := os.CreateTemp(j.dir, name+claimSuffix+".*.tmp")
		if err != nil {
			return false, fmt.Errorf("checkpoint: claiming %q: %w", name, err)
		}
		tmpName := tmp.Name()
		_, werr := tmp.Write(data)
		serr := tmp.Sync()
		cerr := tmp.Close()
		if err := firstErr(werr, serr, cerr); err != nil {
			os.Remove(tmpName)
			return false, fmt.Errorf("checkpoint: claiming %q: %w", name, err)
		}
		linkErr := os.Link(tmpName, path)
		os.Remove(tmpName)
		if linkErr == nil {
			return true, nil
		}
		if !os.IsExist(linkErr) {
			return false, fmt.Errorf("checkpoint: claiming %q: %w", name, linkErr)
		}
		cur, rerr := os.ReadFile(path)
		if os.IsNotExist(rerr) {
			continue // released between link and read; retry
		}
		if rerr != nil {
			return false, fmt.Errorf("checkpoint: reading claim %q: %w", name, rerr)
		}
		var rec claimRecord
		if err := json.Unmarshal(cur, &rec); err != nil {
			return false, fmt.Errorf("checkpoint: claim %q corrupt: %w", name, err)
		}
		if rec.Key != j.key {
			// Open sweeps stale-key claims, so this means another
			// process is running a DIFFERENT configuration in this
			// directory right now. Splitting the directory between two
			// configurations corrupts both claim sets; fail loudly.
			return false, fmt.Errorf("checkpoint: claim %q held under configuration %s (journal key %s); one journal directory serves one configuration", name, rec.Key, j.key)
		}
		return rec.Owner == owner, nil
	}
	return false, fmt.Errorf("checkpoint: claim %q kept disappearing; giving up", name)
}

// ClaimedBy reports the current holder of name's claim, if any.
func (j *Journal) ClaimedBy(name string) (string, bool, error) {
	path, err := j.claimPath(name)
	if err != nil {
		return "", false, err
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return "", false, nil
	}
	if err != nil {
		return "", false, fmt.Errorf("checkpoint: reading claim %q: %w", name, err)
	}
	var rec claimRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return "", false, fmt.Errorf("checkpoint: claim %q corrupt: %w", name, err)
	}
	if rec.Key != j.key {
		return "", false, nil
	}
	return rec.Owner, true, nil
}

// Release gives up owner's claim on name so another process can take
// it (used when the claimed work failed or was interrupted). Releasing
// a claim that does not exist is a no-op; releasing one held by a
// different owner is an error — only the holder may release.
func (j *Journal) Release(name, owner string) error {
	path, err := j.claimPath(name)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("checkpoint: reading claim %q: %w", name, err)
	}
	var rec claimRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return fmt.Errorf("checkpoint: claim %q corrupt: %w", name, err)
	}
	if rec.Key == j.key && rec.Owner != owner {
		return fmt.Errorf("checkpoint: claim %q held by %q, not %q", name, rec.Owner, owner)
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("checkpoint: releasing claim %q: %w", name, err)
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Entries lists the names journaled under this journal's key, sorted.
func (j *Journal) Entries() ([]string, error) {
	files, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var names []string
	for _, f := range files {
		name, ok := strings.CutSuffix(f.Name(), ".json")
		if !ok {
			continue
		}
		data, err := os.ReadFile(filepath.Join(j.dir, f.Name()))
		if err != nil {
			continue
		}
		var rec envelope
		if err := json.Unmarshal(data, &rec); err != nil {
			continue
		}
		if rec.Key == j.key && rec.Name == name {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
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
