package persist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
)

// Reshard durability: the two-phase MANIFEST commit behind live N→2N
// shard splitting.
//
// Phase one (BeginReshard) publishes a RESHARD intent file next to the
// manifest naming the source topology (FromShards @ FromEpoch) and the
// target (ToShards @ ToEpoch). The coordinator then stages the 2N child
// stores under epoch-<ToEpoch>/shard-<i> — the staging directories ARE
// the final directories, so there is nothing to move at commit time.
//
// Phase two (CommitReshard) atomically rewrites the MANIFEST to the
// target topology. That single rename is the commit point: recovery
// (resolveReshardCrash, run by ResolveLayout before anything opens a
// store) looks at the intent and the manifest together —
//
//   - manifest matches the intent's target  → the reshard committed;
//     finish it (GC the old epoch's tree, drop the intent).
//   - anything else                         → it did not; abort it
//     (GC the staged epoch's tree, drop the intent).
//
// Either way the directory ends at exactly one topology with no trace of
// the other, so a crash at any byte of the reshard can never leave a mix.

// ReshardIntentName is the intent record published next to the MANIFEST
// for the duration of a reshard.
const ReshardIntentName = "RESHARD"

// reshardIntentVersion guards the intent format the same way the
// manifest version guards the layout.
const reshardIntentVersion = 1

// ReshardIntent records an in-flight N→2N split: which topology it reads
// from and which it stages into.
type ReshardIntent struct {
	Version    int `json:"version"`
	FromShards int `json:"fromShards"`
	ToShards   int `json:"toShards"`
	FromEpoch  int `json:"fromEpoch"`
	ToEpoch    int `json:"toEpoch"`
}

// ReadReshardIntent loads the intent record, reporting ok=false when
// none exists (no reshard in flight).
func ReadReshardIntent(fsys FS, root string) (in ReshardIntent, ok bool, err error) {
	if fsys == nil {
		fsys = osFS{}
	}
	rc, err := fsys.Open(filepath.Join(root, ReshardIntentName))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return ReshardIntent{}, false, nil
		}
		return ReshardIntent{}, false, fmt.Errorf("persist: open reshard intent: %w", err)
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err != nil {
		return ReshardIntent{}, false, fmt.Errorf("persist: read reshard intent: %w", err)
	}
	if err := json.Unmarshal(data, &in); err != nil {
		return ReshardIntent{}, false, fmt.Errorf("persist: decode reshard intent: %w", err)
	}
	if in.Version != reshardIntentVersion {
		return ReshardIntent{}, false, fmt.Errorf("persist: reshard intent version %d not supported (this binary understands %d)", in.Version, reshardIntentVersion)
	}
	if in.FromShards < 1 || in.FromEpoch < 0 || in.ToShards != 2*in.FromShards || in.ToEpoch != in.FromEpoch+1 {
		return ReshardIntent{}, false, fmt.Errorf("persist: malformed reshard intent %+v", in)
	}
	return in, true, nil
}

// BeginReshard publishes the intent record for splitting the current
// topology cur into 2·cur.Shards shards at epoch cur.Epoch+1. It refuses
// to start over an existing intent: exactly one reshard may be in flight
// per directory. The staged child directories are created lazily by the
// coordinator (persist.Open mkdirs); the intent alone marks them as
// not-yet-committed.
func BeginReshard(fsys FS, root string, cur Layout) (ReshardIntent, error) {
	if fsys == nil {
		fsys = osFS{}
	}
	if cur.Shards < 1 {
		return ReshardIntent{}, fmt.Errorf("persist: reshard from %d shards", cur.Shards)
	}
	if _, ok, err := ReadReshardIntent(fsys, root); err != nil {
		return ReshardIntent{}, err
	} else if ok {
		return ReshardIntent{}, fmt.Errorf("persist: %s already has a reshard in flight (RESHARD intent present)", root)
	}
	in := ReshardIntent{
		Version:    reshardIntentVersion,
		FromShards: cur.Shards,
		ToShards:   2 * cur.Shards,
		FromEpoch:  cur.Epoch,
		ToEpoch:    cur.Epoch + 1,
	}
	if err := writeFileAtomic(fsys, root, ReshardIntentName, in); err != nil {
		return ReshardIntent{}, err
	}
	return in, nil
}

// CommitReshard is the commit point: it atomically rewrites the MANIFEST
// to the intent's target topology. Once the rename lands, recovery
// resolves to the new topology; before it, to the old one.
func CommitReshard(fsys FS, root string, in ReshardIntent) error {
	return WriteManifest(fsys, root, Manifest{Shards: in.ToShards, Epoch: in.ToEpoch})
}

// AbortReshard discards a reshard that has not committed: the staged
// epoch tree is deleted, then the intent. Safe to call on a partially
// staged (or never staged) epoch.
func AbortReshard(fsys FS, root string, in ReshardIntent) error {
	return retireEpoch(fsys, root, in.ToEpoch, "abort reshard")
}

// FinishReshard garbage-collects the losing (old) epoch of a committed
// reshard, then drops the intent.
func FinishReshard(fsys FS, root string, in ReshardIntent) error {
	return retireEpoch(fsys, root, in.FromEpoch, "finish reshard")
}

// retireEpoch deletes epoch's tree, then the intent. The intent is
// removed only after the tree is gone, so a crash mid-GC re-runs it on
// the next recovery.
func retireEpoch(fsys FS, root string, epoch int, what string) error {
	if fsys == nil {
		fsys = osFS{}
	}
	if err := removeTree(fsys, EpochDir(root, epoch)); err != nil {
		return fmt.Errorf("persist: %s: remove epoch %d: %w", what, epoch, err)
	}
	if err := fsys.Remove(filepath.Join(root, ReshardIntentName)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("persist: %s: remove intent: %w", what, err)
	}
	return fsys.SyncDir(root)
}

// resolveReshardCrash lands a directory with a RESHARD intent on exactly
// one topology: an intent whose target m already records committed and
// finishes, any other aborts. A directory without an intent is
// untouched.
func resolveReshardCrash(fsys FS, root string, m Manifest) error {
	in, ok, err := ReadReshardIntent(fsys, root)
	if err != nil || !ok {
		return err
	}
	if m.Shards == in.ToShards && m.Epoch == in.ToEpoch {
		return FinishReshard(fsys, root, in)
	}
	return AbortReshard(fsys, root, in)
}

// writeFileAtomic publishes a small JSON record at root/name with the
// snapshot durability discipline (tmp, fsync, rename, dir sync).
func writeFileAtomic(fsys FS, root, name string, v interface{}) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("persist: encode %s: %w", name, err)
	}
	if err := fsys.MkdirAll(root); err != nil {
		return fmt.Errorf("persist: create dir: %w", err)
	}
	path := filepath.Join(root, name)
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("persist: create %s: %w", name, err)
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("persist: write %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("persist: sync %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("persist: close %s: %w", name, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("persist: publish %s: %w", name, err)
	}
	return fsys.SyncDir(root)
}

// removeTree deletes dir and everything under it through the FS
// abstraction (which has no RemoveAll): try the plain remove first, and
// on failure recurse into the listing. A missing dir is a no-op.
func removeTree(fsys FS, dir string) error {
	if err := fsys.Remove(dir); err == nil || errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return err
	}
	for _, name := range names {
		p := filepath.Join(dir, name)
		if err := fsys.Remove(p); err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue
			}
			if err2 := removeTree(fsys, p); err2 != nil {
				return err2
			}
		}
	}
	return fsys.Remove(dir)
}
