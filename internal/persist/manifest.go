package persist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"strings"
)

// ManifestName is the file at the root of every snapshot directory,
// recording the shard count and the epoch directory that holds them.
const ManifestName = "MANIFEST"

// manifestVersion is the one layout this binary reads and writes: every
// shard lives at epoch-<e>/shard-<i>/, epoch 0 and a single shard
// included. Versions 1 and 2 kept epoch 0 (or a single shard) at the
// root; their directories are refused rather than misread, and an older
// binary refuses version 3 for the same reason.
const manifestVersion = 3

// Manifest describes a snapshot directory. The shard count is fixed per
// epoch: routing is a stable function of the vector id and the count, so
// changing it requires a reshard (see BeginReshard), which doubles the
// count into a fresh epoch and commits by rewriting this file.
type Manifest struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
	// Epoch is the reshard generation: each committed N→2N reshard
	// increments it, and its shards live under epoch-<e>/.
	Epoch int `json:"epoch"`
}

// ReadManifest loads the manifest from root. ok is false when no manifest
// exists. A nil fsys uses the real filesystem.
func ReadManifest(fsys FS, root string) (m Manifest, ok bool, err error) {
	if fsys == nil {
		fsys = osFS{}
	}
	rc, err := fsys.Open(filepath.Join(root, ManifestName))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return Manifest{}, false, nil
		}
		return Manifest{}, false, fmt.Errorf("persist: open manifest: %w", err)
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err != nil {
		return Manifest{}, false, fmt.Errorf("persist: read manifest: %w", err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, false, fmt.Errorf("persist: %s: decode manifest: %w", root, err)
	}
	// Serving through a misread manifest silently misroutes ids, or
	// rebuilds over live state from an empty shard directory: refuse
	// every version but the one layout this binary writes.
	switch {
	case m.Version > 0 && m.Version < manifestVersion:
		return Manifest{}, false, fmt.Errorf(
			"persist: %s has a version %d manifest, a layout that keeps epoch 0 at the root, which this binary does not read; rebuild the index into a fresh directory",
			root, m.Version)
	case m.Version != manifestVersion:
		return Manifest{}, false, fmt.Errorf(
			"persist: %s: manifest version %d not supported (this binary understands %d); refusing to guess the layout",
			root, m.Version, manifestVersion)
	case m.Epoch < 0:
		return Manifest{}, false, fmt.Errorf("persist: %s: manifest declares negative epoch %d", root, m.Epoch)
	case m.Shards < 1:
		return Manifest{}, false, fmt.Errorf("persist: %s: manifest declares %d shards", root, m.Shards)
	}
	return m, true, nil
}

// WriteManifest atomically publishes m at root, at the current format
// version, with the same durability discipline as a snapshot.
func WriteManifest(fsys FS, root string, m Manifest) error {
	if fsys == nil {
		fsys = osFS{}
	}
	if m.Shards < 1 || m.Epoch < 0 {
		return fmt.Errorf("persist: manifest must declare at least 1 shard and a non-negative epoch, got %+v", m)
	}
	m.Version = manifestVersion
	return writeFileAtomic(fsys, root, ManifestName, m)
}

// EpochDir returns the directory epoch e's shard tree lives under:
// <root>/epoch-<e>.
func EpochDir(root string, epoch int) string {
	return filepath.Join(root, fmt.Sprintf("%s%d", epochPrefix, epoch))
}

// epochPrefix names every epoch directory: epoch-<e>.
const epochPrefix = "epoch-"

// ShardDirAt returns the directory shard i of epoch e lives in:
// <root>/epoch-<e>/shard-<i>.
func ShardDirAt(root string, epoch, i int) string {
	return filepath.Join(EpochDir(root, epoch), fmt.Sprintf("shard-%d", i))
}

// OpenSharded opens (or lays out) the stores of an n-shard index at
// epoch 0 under root.
func OpenSharded(root string, n int, opts Options) ([]*Store, error) {
	return OpenShardedAt(root, n, 0, opts)
}

// OpenShardedAt opens (or lays out) the n stores of epoch e under root,
// one per epoch-<e>/shard-<i> directory, each an independent Store with
// its own snapshot generations and op log. Shards therefore fail, stall,
// and snapshot independently; recovery tolerates them sitting at
// different generations.
//
// OpenShardedAt does not read or write the manifest: the caller resolves
// the layout first (ResolveLayout) so flag/manifest conflicts and
// unreadable directories are reported before any directory is touched.
func OpenShardedAt(root string, n, epoch int, opts Options) ([]*Store, error) {
	if n < 1 {
		return nil, fmt.Errorf("persist: shard count %d", n)
	}
	stores := make([]*Store, n)
	for i := range stores {
		st, err := Open(ShardDirAt(root, epoch, i), opts)
		if err != nil {
			return nil, fmt.Errorf("persist: open epoch %d shard %d: %w", epoch, i, err)
		}
		stores[i] = st
	}
	return stores, nil
}

// Layout is the resolved on-disk topology of a snapshot root: how many
// shards, and which epoch directory holds them.
type Layout struct {
	Shards int
	Epoch  int
}

// ResolveLayout decides the effective topology for root given the
// -shards flag. A directory this binary cannot read (an old manifest
// version, or a snapshot or op log at the root with no manifest) is
// refused before anything in it is touched. Otherwise any crashed
// reshard is resolved first: a RESHARD intent whose target manifest
// committed finishes (GC of the old epoch), one that did not aborts (GC
// of the staged epoch) — so recovery always lands on exactly the old or
// the new topology, never a mix.
//
// After that, a manifest pins shard count and epoch (a conflicting
// explicit flag is an error), and a fresh directory takes the flag and
// gets its epoch-0 manifest before any shard directory exists.
//
// flagSet distinguishes "operator typed -shards" from the default, so a
// bare restart of a 4-shard server needs no flags.
func ResolveLayout(fsys FS, root string, flagShards int, flagSet bool) (Layout, error) {
	if flagShards < 1 {
		return Layout{}, fmt.Errorf("persist: -shards must be at least 1, got %d", flagShards)
	}
	m, ok, err := readLayout(fsys, root)
	if err != nil {
		return Layout{}, err
	}
	if !ok {
		m = Manifest{Shards: flagShards}
		if err := WriteManifest(fsys, root, m); err != nil {
			return Layout{}, err
		}
	}
	if err := resolveReshardCrash(fsys, root, m); err != nil {
		return Layout{}, err
	}
	if flagSet && flagShards != m.Shards {
		return Layout{}, fmt.Errorf("persist: %s was built with %d shards; -shards %d cannot change that (routing is a function of the shard count; use a reshard to grow it)", root, m.Shards, flagShards)
	}
	return Layout{Shards: m.Shards, Epoch: m.Epoch}, nil
}

// PeekLayout reads root's topology without resolving reshard crashes
// and without writing anything — for read-only observers (a follower
// tailing a leader's directory) that must never mutate a tree another
// process owns. A pending RESHARD intent is reported as the old
// topology: until the target manifest commits, that is what the owner's
// recovery would keep. A fresh directory reports the flag's count at
// epoch 0, the layout its owner will write.
func PeekLayout(fsys FS, root string, flagShards int, flagSet bool) (Layout, error) {
	if flagShards < 1 {
		return Layout{}, fmt.Errorf("persist: -shards must be at least 1, got %d", flagShards)
	}
	m, ok, err := readLayout(fsys, root)
	if err != nil {
		return Layout{}, err
	}
	if !ok {
		return Layout{Shards: flagShards}, nil
	}
	if flagSet && flagShards != m.Shards {
		return Layout{}, fmt.Errorf("persist: %s is a %d-shard tree; -shards %d conflicts with it", root, m.Shards, flagShards)
	}
	return Layout{Shards: m.Shards, Epoch: m.Epoch}, nil
}

// readLayout reads root's manifest without writing anything, refusing a
// directory this binary cannot read: a manifest at another version, no
// manifest but a snapshot or op log at the root — the single-shard
// layout from before manifests — or no manifest but an epoch-<e>/ tree,
// whose shard count only the lost manifest recorded. ok is false for a
// fresh directory.
func readLayout(fsys FS, root string) (m Manifest, ok bool, err error) {
	if fsys == nil {
		fsys = osFS{}
	}
	if m, ok, err = ReadManifest(fsys, root); err != nil || ok {
		return m, ok, err
	}
	names, err := fsys.ReadDir(root)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return Manifest{}, false, fmt.Errorf("persist: scan %s: %w", root, err)
	}
	for _, name := range names {
		if strings.HasPrefix(name, snapPrefix) || strings.HasPrefix(name, logPrefix) {
			return Manifest{}, false, fmt.Errorf(
				"persist: %s holds %s at its root and no MANIFEST, a single-shard layout this binary does not read; rebuild the index into a fresh directory",
				root, name)
		}
		if strings.HasPrefix(name, epochPrefix) {
			// Routing is a function of the shard count: adopting the
			// flag's count over existing shard state would misroute every
			// row it holds.
			return Manifest{}, false, fmt.Errorf(
				"persist: %s holds %s but no MANIFEST, so its shard count is unknown; refusing to guess it (restore the MANIFEST or rebuild the index into a fresh directory)",
				root, name)
		}
	}
	return Manifest{}, false, nil
}
