package persist

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ngfix/internal/graph"
	"ngfix/internal/vec"
)

func tinyGraph(t *testing.T, rows int) *graph.Graph {
	t.Helper()
	m := vec.NewMatrix(0, 4)
	for i := 0; i < rows; i++ {
		m.Append([]float32{float32(i), 1, 2, 3})
	}
	g := graph.New(m, vec.L2)
	for i := 1; i < rows; i++ {
		g.AddBaseEdge(uint32(i-1), uint32(i))
		g.AddBaseEdge(uint32(i), uint32(i-1))
	}
	return g
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := ReadManifest(nil, dir); err != nil || ok {
		t.Fatalf("fresh dir: ok=%v err=%v", ok, err)
	}
	if err := WriteManifest(nil, dir, Manifest{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	m, ok, err := ReadManifest(nil, dir)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if m.Shards != 4 || m.Version != manifestVersion {
		t.Fatalf("manifest %+v", m)
	}
	// Garbage manifests are an error, not a silent single-shard fallback.
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadManifest(nil, dir); err == nil {
		t.Fatal("corrupt manifest read without error")
	}
}

// TestPeekLayout: the read-only topology probe a follower uses on a
// directory it does not own — it must report the current (pre-intent)
// topology and never resolve a reshard crash it finds there.
func TestPeekLayout(t *testing.T) {
	dir := t.TempDir()
	if _, err := ResolveLayout(nil, dir, 2, true); err != nil {
		t.Fatal(err)
	}
	l, err := PeekLayout(nil, dir, 1, false)
	if err != nil || l.Shards != 2 || l.Epoch != 0 {
		t.Fatalf("peek: %+v err=%v", l, err)
	}
	// Conflicting explicit flag is refused, matching ResolveLayout.
	if _, err := PeekLayout(nil, dir, 3, true); err == nil {
		t.Fatal("conflicting -shards accepted")
	}

	// A reshard in flight: peek reports the OLD topology (the intent is
	// the leader's business) and leaves both the intent and the staged
	// epoch untouched — no GC, no writes.
	in, err := BeginReshard(nil, dir, Layout{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	staged := filepath.Join(EpochDir(dir, in.ToEpoch), "shard-0")
	if err := os.MkdirAll(staged, 0o755); err != nil {
		t.Fatal(err)
	}
	l, err = PeekLayout(nil, dir, 1, false)
	if err != nil || l.Shards != 2 || l.Epoch != 0 {
		t.Fatalf("peek mid-reshard: %+v err=%v", l, err)
	}
	if _, ok, err := ReadReshardIntent(nil, dir); err != nil || !ok {
		t.Fatalf("peek consumed the reshard intent: ok=%v err=%v", ok, err)
	}
	if _, err := os.Stat(staged); err != nil {
		t.Fatalf("peek GC'd the staged epoch: %v", err)
	}
	// After commit, peek sees the new topology.
	if err := CommitReshard(nil, dir, in); err != nil {
		t.Fatal(err)
	}
	l, err = PeekLayout(nil, dir, 1, false)
	if err != nil || l.Shards != 4 || l.Epoch != 1 {
		t.Fatalf("peek post-commit: %+v err=%v", l, err)
	}

	// A fresh dir reports the flag's count at epoch 0 — the layout its
	// owner will write — and peeking writes nothing.
	bare := t.TempDir()
	l, err = PeekLayout(nil, bare, 2, true)
	if err != nil || l.Shards != 2 || l.Epoch != 0 {
		t.Fatalf("fresh peek: %+v err=%v", l, err)
	}
	if entries, err := os.ReadDir(bare); err != nil || len(entries) != 0 {
		t.Fatalf("peek wrote into a fresh dir: %v err=%v", entries, err)
	}
}

func TestOpenShardedLayout(t *testing.T) {
	root := t.TempDir()
	stores, err := OpenSharded(root, 3, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(stores) != 3 {
		t.Fatalf("stores = %d", len(stores))
	}
	for i, st := range stores {
		want := ShardDirAt(root, 0, i)
		if st.Dir() != want {
			t.Fatalf("shard %d dir %q, want %q", i, st.Dir(), want)
		}
		if err := st.Snapshot(tinyGraph(t, 2+i)); err != nil {
			t.Fatal(err)
		}
	}
	// Shards advance generations independently: bump shard 1 twice and
	// reopen — every shard recovers its own newest snapshot.
	if err := stores[1].Snapshot(tinyGraph(t, 5)); err != nil {
		t.Fatal(err)
	}
	for _, st := range stores {
		st.Close()
	}
	re, err := OpenSharded(root, 3, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if g0, g1 := re[0].Generation(), re[1].Generation(); g1 != g0+1 {
		t.Fatalf("generations not independent: shard0=%d shard1=%d", g0, g1)
	}
	g, err := re[1].Load()
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 5 {
		t.Fatalf("shard 1 recovered %d vectors, want 5", g.Len())
	}

	// One shard is laid out like any other count: epoch-0/shard-0, and
	// ResolveLayout gives the fresh directory its manifest.
	single := t.TempDir()
	if _, err := ResolveLayout(nil, single, 1, false); err != nil {
		t.Fatal(err)
	}
	ss, err := OpenSharded(single, 1, Options{NoSync: true})
	if err != nil || len(ss) != 1 {
		t.Fatalf("single: %v", err)
	}
	if want := filepath.Join(single, "epoch-0", "shard-0"); ss[0].Dir() != want {
		t.Fatalf("single-shard dir %q, want %q", ss[0].Dir(), want)
	}
	if err := ss[0].Snapshot(tinyGraph(t, 3)); err != nil {
		t.Fatal(err)
	}
	ss[0].Close()
	if m, ok, err := ReadManifest(nil, single); err != nil || !ok || m.Shards != 1 || m.Epoch != 0 {
		t.Fatalf("single-shard manifest %+v ok=%v err=%v", m, ok, err)
	}
	// And it recovers after a restart.
	l, err := ResolveLayout(nil, single, 1, false)
	if err != nil || l != (Layout{Shards: 1}) {
		t.Fatalf("single-shard restart layout %+v err=%v", l, err)
	}
	re1, err := OpenShardedAt(single, l.Shards, l.Epoch, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re1[0].Close()
	if g, err := re1[0].Load(); err != nil || g.Len() != 3 {
		t.Fatalf("single-shard restart: %v", err)
	}
}

// TestUnreadableLayoutRefused: a directory written in a layout this
// binary does not read is refused by ResolveLayout and PeekLayout with an
// error naming it, and nothing in it is resolved, written, removed or
// renamed.
func TestUnreadableLayoutRefused(t *testing.T) {
	for name, files := range unreadableLayouts() {
		t.Run(name, func(t *testing.T) {
			root := t.TempDir()
			for rel, body := range files {
				writeTestFile(t, filepath.Join(root, rel), body)
			}
			before := treeBytes(t, root)
			// A bare restart and an explicit -shards alike: neither may
			// pin a count over the tree.
			for _, flag := range []struct {
				shards int
				set    bool
			}{{1, false}, {4, true}} {
				if l, err := ResolveLayout(nil, root, flag.shards, flag.set); err == nil || !strings.Contains(err.Error(), root) {
					t.Fatalf("ResolveLayout(-shards %d): layout %+v err %v, want a refusal naming %s", flag.shards, l, err, root)
				}
				if l, err := PeekLayout(nil, root, flag.shards, flag.set); err == nil || !strings.Contains(err.Error(), root) {
					t.Fatalf("PeekLayout(-shards %d): layout %+v err %v, want a refusal naming %s", flag.shards, l, err, root)
				}
			}
			if after := treeBytes(t, root); !reflect.DeepEqual(after, before) {
				t.Fatalf("refusal touched the tree:\nbefore %v\nafter  %v", before, after)
			}
		})
	}
}

// unreadableLayouts are the directory shapes this binary refuses, as
// relative path → contents: a manifest-less single-shard root, a
// version-1 manifest with shard-<i>/ at the root, a version-2 manifest,
// a version-2 manifest with a reshard in flight, and a two-shard
// epoch-0/ tree whose manifest is missing (what OpenSharded lays out
// when nothing resolved the layout first).
func unreadableLayouts() map[string]map[string]string {
	snap := "snapshot-0000000000000001.ngsnap"
	wal := "oplog-0000000000000001.wal"
	return map[string]map[string]string{
		"manifest-less root": {snap: "snap", wal: "wal"},
		"v1 manifest": {
			ManifestName:                   `{"version":1,"shards":2}`,
			filepath.Join("shard-0", snap): "snap0",
			filepath.Join("shard-1", snap): "snap1",
		},
		"v2 manifest": {
			ManifestName: `{"version":2,"shards":4,"epoch":1}`,
			filepath.Join("epoch-1", "shard-0", snap): "snap0",
		},
		"v2 manifest with reshard intent": {
			ManifestName:                              `{"version":2,"shards":2}`,
			ReshardIntentName:                         `{"version":1,"fromShards":2,"toShards":4,"fromEpoch":0,"toEpoch":1}`,
			filepath.Join("shard-0", snap):            "snap0",
			filepath.Join("epoch-1", "shard-0", snap): "staged",
		},
		"manifest-less epoch tree": {
			filepath.Join("epoch-0", "shard-0", snap): "snap0",
			filepath.Join("epoch-0", "shard-1", snap): "snap1",
		},
	}
}

func writeTestFile(t *testing.T, path, body string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// treeBytes maps every file and directory under root to its contents
// (directories to "/").
func treeBytes(t *testing.T, root string) map[string]string {
	t.Helper()
	tree := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			tree[rel] = "/"
			return nil
		}
		b, err := os.ReadFile(path)
		tree[rel] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}
