package persist

import (
	"os"
	"path/filepath"
	"testing"
)

// TestManifestVersionRejected: a manifest from another binary (or a
// corrupted field) must fail loudly, not be served through.
func TestManifestVersionRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		body string
	}{
		{"future version", `{"version":99,"shards":4}`},
		{"zero version", `{"version":0,"shards":4}`},
		{"negative version", `{"version":-1,"shards":4}`},
		{"version 2", `{"version":2,"shards":4,"epoch":1}`},
		{"negative epoch", `{"version":3,"shards":4,"epoch":-1}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(tc.body), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := ReadManifest(nil, dir); err == nil {
				t.Fatalf("manifest %q accepted", tc.body)
			}
			// The guard must reach ResolveLayout too, so the server refuses
			// to start over a directory it would misread.
			if _, err := ResolveLayout(nil, dir, 1, false); err == nil {
				t.Fatalf("ResolveLayout accepted manifest %q", tc.body)
			}
		})
	}
}

// TestEpochLayout: manifests round-trip the epoch and
// OpenShardedAt places shard directories under epoch-<e>/.
func TestEpochLayout(t *testing.T) {
	dir := t.TempDir()
	if err := WriteManifest(nil, dir, Manifest{Shards: 4, Epoch: 2}); err != nil {
		t.Fatal(err)
	}
	m, ok, err := ReadManifest(nil, dir)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if m.Version != manifestVersion || m.Shards != 4 || m.Epoch != 2 {
		t.Fatalf("manifest %+v", m)
	}
	l, err := ResolveLayout(nil, dir, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if l.Shards != 4 || l.Epoch != 2 {
		t.Fatalf("layout %+v", l)
	}
	stores, err := OpenShardedAt(dir, 4, 2, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range stores {
		want := filepath.Join(dir, "epoch-2", "shard-"+string(rune('0'+i)))
		if st.Dir() != want {
			t.Fatalf("shard %d dir %q, want %q", i, st.Dir(), want)
		}
		st.Close()
	}
}

// seedShards lays out a fresh n-shard directory with a tiny graph in
// each shard and returns the root.
func seedShards(t *testing.T, n int) string {
	t.Helper()
	root := t.TempDir()
	if _, err := ResolveLayout(nil, root, n, true); err != nil {
		t.Fatal(err)
	}
	stores, err := OpenSharded(root, n, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range stores {
		if err := st.Snapshot(tinyGraph(t, 2+i)); err != nil {
			t.Fatal(err)
		}
		st.Close()
	}
	return root
}

// stageChildren opens and seals the 2N staged child stores for an intent,
// simulating the coordinator's streaming phase.
func stageChildren(t *testing.T, root string, in ReshardIntent) {
	t.Helper()
	stores, err := OpenShardedAt(root, in.ToShards, in.ToEpoch, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range stores {
		if err := st.Snapshot(tinyGraph(t, 1+i)); err != nil {
			t.Fatal(err)
		}
		st.Close()
	}
}

// TestReshardCommitFinish: the happy path — begin, stage, commit, finish —
// ends on the new topology with the old side reclaimed and no intent left.
func TestReshardCommitFinish(t *testing.T) {
	root := seedShards(t, 2)
	cur, err := ResolveLayout(nil, root, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	in, err := BeginReshard(nil, root, cur)
	if err != nil {
		t.Fatal(err)
	}
	if in.FromShards != 2 || in.ToShards != 4 || in.ToEpoch != 1 {
		t.Fatalf("intent %+v", in)
	}
	// A second begin over a live intent is refused.
	if _, err := BeginReshard(nil, root, cur); err == nil {
		t.Fatal("concurrent reshard accepted")
	}
	stageChildren(t, root, in)
	if err := CommitReshard(nil, root, in); err != nil {
		t.Fatal(err)
	}
	if err := FinishReshard(nil, root, in); err != nil {
		t.Fatal(err)
	}
	l, err := ResolveLayout(nil, root, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if l.Shards != 4 || l.Epoch != 1 {
		t.Fatalf("layout after commit %+v", l)
	}
	if _, err := os.Stat(EpochDir(root, 0)); !os.IsNotExist(err) {
		t.Fatalf("old epoch not reclaimed: %v", err)
	}
	if _, err := os.Stat(filepath.Join(root, ReshardIntentName)); !os.IsNotExist(err) {
		t.Fatalf("intent survived finish: %v", err)
	}
	stores, err := OpenShardedAt(root, l.Shards, l.Epoch, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range stores {
		if !st.HasState() {
			t.Fatalf("child %d has no state", i)
		}
		st.Close()
	}
}

// TestReshardCrashRecovery walks every crash window of a reshard and
// asserts recovery (ResolveLayout) lands on exactly the old or the new
// topology — never a mix, never a leftover intent or staging tree.
func TestReshardCrashRecovery(t *testing.T) {
	type outcome int
	const (
		oldTopo outcome = iota
		newTopo
	)
	cases := []struct {
		name string
		die  func(t *testing.T, root string, in ReshardIntent)
		want outcome
	}{
		{"after intent, before staging", func(t *testing.T, root string, in ReshardIntent) {}, oldTopo},
		{"mid staging", func(t *testing.T, root string, in ReshardIntent) {
			// Only some children staged; a torn stream leaves partial files.
			stores, err := OpenShardedAt(root, in.ToShards, in.ToEpoch, Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := stores[0].Snapshot(tinyGraph(t, 3)); err != nil {
				t.Fatal(err)
			}
			for _, st := range stores {
				st.Close()
			}
			torn := filepath.Join(ShardDirAt(root, in.ToEpoch, 1), "snapshot-0000000000000001.ngsnap.tmp")
			if err := os.WriteFile(torn, []byte("torn"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, oldTopo},
		{"staged, before commit", func(t *testing.T, root string, in ReshardIntent) {
			stageChildren(t, root, in)
		}, oldTopo},
		{"committed, before finish", func(t *testing.T, root string, in ReshardIntent) {
			stageChildren(t, root, in)
			if err := CommitReshard(nil, root, in); err != nil {
				t.Fatal(err)
			}
		}, newTopo},
		{"committed, finish half done", func(t *testing.T, root string, in ReshardIntent) {
			stageChildren(t, root, in)
			if err := CommitReshard(nil, root, in); err != nil {
				t.Fatal(err)
			}
			// Simulate dying partway through GC: one old shard already gone.
			if err := os.RemoveAll(ShardDirAt(root, 0, 0)); err != nil {
				t.Fatal(err)
			}
		}, newTopo},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := seedShards(t, 2)
			cur, err := ResolveLayout(nil, root, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			in, err := BeginReshard(nil, root, cur)
			if err != nil {
				t.Fatal(err)
			}
			tc.die(t, root, in)

			// Recovery is ResolveLayout — the first thing a restarting
			// server does.
			l, err := ResolveLayout(nil, root, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			switch tc.want {
			case oldTopo:
				if l.Shards != 2 || l.Epoch != 0 {
					t.Fatalf("wanted old topology, got %+v", l)
				}
				if _, err := os.Stat(EpochDir(root, in.ToEpoch)); !os.IsNotExist(err) {
					t.Fatalf("staged epoch survived abort: %v", err)
				}
			case newTopo:
				if l.Shards != 4 || l.Epoch != 1 {
					t.Fatalf("wanted new topology, got %+v", l)
				}
				if _, err := os.Stat(EpochDir(root, 0)); !os.IsNotExist(err) {
					t.Fatalf("old epoch survived finish: %v", err)
				}
			}
			if _, err := os.Stat(filepath.Join(root, ReshardIntentName)); !os.IsNotExist(err) {
				t.Fatalf("intent survived recovery: %v", err)
			}
			// Recovery is idempotent and the resolved topology opens clean.
			l2, err := ResolveLayout(nil, root, 1, false)
			if err != nil || l2 != l {
				t.Fatalf("second resolve: %+v err=%v", l2, err)
			}
			stores, err := OpenShardedAt(root, l.Shards, l.Epoch, Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			for i, st := range stores {
				if !st.HasState() {
					t.Fatalf("shard %d of resolved topology has no state", i)
				}
				st.Close()
			}
		})
	}
}

// TestReshardFromSingleShard: a one-shard directory splits 1→2 like any
// other count, and finishing reclaims epoch-0/ whole while the MANIFEST,
// the new epoch and files the store does not own stay.
func TestReshardFromSingleShard(t *testing.T) {
	root := seedShards(t, 1)
	keep := filepath.Join(root, "NOTES.txt")
	if err := os.WriteFile(keep, []byte("ops"), 0o644); err != nil {
		t.Fatal(err)
	}
	cur, err := ResolveLayout(nil, root, 1, false)
	if err != nil || cur != (Layout{Shards: 1}) {
		t.Fatalf("cur=%+v err=%v", cur, err)
	}
	in, err := BeginReshard(nil, root, cur)
	if err != nil {
		t.Fatal(err)
	}
	stageChildren(t, root, in)
	if err := CommitReshard(nil, root, in); err != nil {
		t.Fatal(err)
	}
	if err := FinishReshard(nil, root, in); err != nil {
		t.Fatal(err)
	}
	l, err := ResolveLayout(nil, root, 1, false)
	if err != nil || l.Shards != 2 || l.Epoch != 1 {
		t.Fatalf("layout %+v err=%v", l, err)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		switch e.Name() {
		case ManifestName, "NOTES.txt", "epoch-1":
		default:
			t.Fatalf("unexpected root entry after finish: %s", e.Name())
		}
	}
}

// TestReshardCommitTornWrite drives the commit rename through the
// fault-injecting FS, killing the write at every byte offset: each crash
// point must recover to exactly the old or the new topology.
func TestReshardCommitTornWrite(t *testing.T) {
	for budget := 0; ; budget++ {
		root := seedShards(t, 2)
		cur, err := ResolveLayout(nil, root, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		in, err := BeginReshard(nil, root, cur)
		if err != nil {
			t.Fatal(err)
		}
		stageChildren(t, root, in)

		ffs := &faultFS{inner: osFS{}, budget: budget}
		commitErr := CommitReshard(ffs, root, in)
		if commitErr == nil {
			// Budget large enough for a full commit; the suite is done
			// once a clean run also recovers to the new topology.
			l, err := ResolveLayout(nil, root, 1, false)
			if err != nil || l.Shards != 4 || l.Epoch != 1 {
				t.Fatalf("budget %d: clean commit resolved to %+v err=%v", budget, l, err)
			}
			return
		}

		l, err := ResolveLayout(nil, root, 1, false)
		if err != nil {
			t.Fatalf("budget %d: recovery failed: %v", budget, err)
		}
		if !(l.Shards == 2 && l.Epoch == 0) && !(l.Shards == 4 && l.Epoch == 1) {
			t.Fatalf("budget %d: mixed topology %+v", budget, l)
		}
		if _, err := os.Stat(filepath.Join(root, ReshardIntentName)); !os.IsNotExist(err) {
			t.Fatalf("budget %d: intent survived recovery", budget)
		}
		stores, err := OpenShardedAt(root, l.Shards, l.Epoch, Options{NoSync: true})
		if err != nil {
			t.Fatalf("budget %d: open resolved topology: %v", budget, err)
		}
		for i, st := range stores {
			if !st.HasState() {
				t.Fatalf("budget %d: shard %d empty after recovery", budget, i)
			}
			st.Close()
		}
		if budget > 4096 {
			t.Fatal("commit never succeeded within byte budget")
		}
	}
}
