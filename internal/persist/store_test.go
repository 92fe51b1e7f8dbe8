package persist

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ngfix/internal/graph"
	"ngfix/internal/hnsw"
	"ngfix/internal/vec"
)

// testGraph builds a small but realistic graph: an HNSW bottom layer with
// a few extra edges and a tombstone, the shape the serving path persists.
func testGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	m := vec.NewMatrix(n, 6)
	for i := range m.Data() {
		m.Data()[i] = rng.Float32()
	}
	g := hnsw.Build(m, hnsw.Config{M: 4, EFConstruction: 20, Metric: vec.L2}).Bottom()
	g.AddExtraEdge(0, uint32(n-1), 7)
	g.AddExtraEdge(uint32(n/2), 0, graph.InfEH)
	g.MarkDeleted(uint32(n / 3))
	return g
}

func graphsEqual(t *testing.T, want, got *graph.Graph) {
	t.Helper()
	if want.Len() != got.Len() || want.Dim() != got.Dim() || want.Metric != got.Metric {
		t.Fatalf("shape mismatch: %dx%d/%v vs %dx%d/%v",
			want.Len(), want.Dim(), want.Metric, got.Len(), got.Dim(), got.Metric)
	}
	if want.EntryPoint != got.EntryPoint {
		t.Fatalf("entry point %d != %d", got.EntryPoint, want.EntryPoint)
	}
	for i, v := range want.Vectors.Data() {
		if got.Vectors.Data()[i] != v {
			t.Fatalf("vector data differs at %d", i)
		}
	}
	for u := 0; u < want.Len(); u++ {
		uu := uint32(u)
		wb, gb := want.BaseNeighbors(uu), got.BaseNeighbors(uu)
		if len(wb) != len(gb) {
			t.Fatalf("vertex %d base degree %d != %d", u, len(gb), len(wb))
		}
		for i := range wb {
			if wb[i] != gb[i] {
				t.Fatalf("vertex %d base edge %d: %d != %d", u, i, gb[i], wb[i])
			}
		}
		we, ge := want.ExtraNeighbors(uu), got.ExtraNeighbors(uu)
		if len(we) != len(ge) {
			t.Fatalf("vertex %d extra degree %d != %d", u, len(ge), len(we))
		}
		for i := range we {
			if we[i] != ge[i] {
				t.Fatalf("vertex %d extra edge %d: %v != %v", u, i, ge[i], we[i])
			}
		}
		if want.IsDeleted(uu) != got.IsDeleted(uu) {
			t.Fatalf("vertex %d deleted flag differs", u)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t, 60)
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.HasState() {
		t.Fatal("fresh dir reports state")
	}
	if err := st.Snapshot(g); err != nil {
		t.Fatal(err)
	}
	if st.Generation() != 1 {
		t.Fatalf("generation %d, want 1", st.Generation())
	}
	st.Close()

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !st2.HasState() {
		t.Fatal("reopened store reports no state")
	}
	got, err := st2.Load()
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, got)
	if n, err := st2.Replay(func(Op) error { t.Fatal("unexpected op"); return nil }); n != 0 || err != nil {
		t.Fatalf("fresh generation replayed %d ops, err %v", n, err)
	}
}

func TestAppendAndReplay(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t, 40)
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(Op{Kind: OpDelete, ID: 1}); err == nil {
		t.Fatal("Append before Snapshot must fail")
	}
	if err := st.Snapshot(g); err != nil {
		t.Fatal(err)
	}
	ops := []Op{
		{Kind: OpInsert, Vector: []float32{1, 2, 3, 4, 5, 6}},
		{Kind: OpDelete, ID: 3},
		{Kind: OpFixEdges, Updates: []graph.ExtraUpdate{
			{U: 2, Edges: []graph.ExtraEdge{{To: 9, EH: 4}, {To: 1, EH: graph.InfEH}}},
			{U: 7, Edges: nil},
		}},
	}
	for _, op := range ops {
		if err := st.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	if st.PendingOps() != len(ops) {
		t.Fatalf("PendingOps = %d, want %d", st.PendingOps(), len(ops))
	}
	st.Close()

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Load(); err != nil {
		t.Fatal(err)
	}
	var got []Op
	n, err := st2.Replay(func(op Op) error { got = append(got, op); return nil })
	if err != nil || n != len(ops) {
		t.Fatalf("replayed %d ops, err %v", n, err)
	}
	for i, op := range ops {
		if got[i].Kind != op.Kind {
			t.Fatalf("op %d kind %d != %d", i, got[i].Kind, op.Kind)
		}
	}
	if got[0].Vector[5] != 6 || got[1].ID != 3 {
		t.Fatalf("op payloads corrupted: %+v", got[:2])
	}
	ups := got[2].Updates
	if len(ups) != 2 || ups[0].U != 2 || len(ups[0].Edges) != 2 ||
		ups[0].Edges[1] != (graph.ExtraEdge{To: 1, EH: graph.InfEH}) ||
		ups[1].U != 7 || len(ups[1].Edges) != 0 {
		t.Fatalf("fix-edges payload corrupted: %+v", ups)
	}
}

func TestSnapshotAdvancesGenerationAndCleansUp(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t, 30)
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(g); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(Op{Kind: OpDelete, ID: 2}); err != nil {
		t.Fatal(err)
	}
	g.MarkDeleted(2)
	if err := st.Snapshot(g); err != nil {
		t.Fatal(err)
	}
	if st.Generation() != 2 || st.PendingOps() != 0 {
		t.Fatalf("generation %d pending %d, want 2/0", st.Generation(), st.PendingOps())
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		var ns []string
		for _, e := range names {
			ns = append(ns, e.Name())
		}
		t.Fatalf("old generation not cleaned up: %v", ns)
	}
	st.Close()

	st2, _ := Open(dir, Options{})
	got, err := st2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsDeleted(2) {
		t.Fatal("second snapshot lost the delete")
	}
}

func TestLoadFallsBackPastCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t, 30)
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(g); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Fake a newer generation whose snapshot is garbage (e.g. a disk that
	// lied about a rename): Load must fall back to generation 1.
	bad := filepath.Join(dir, "snapshot-0000000000000002.ngsnap")
	if err := os.WriteFile(bad, []byte("not a snapshot at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := st2.Load()
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, got)
	if st2.Generation() != 1 {
		t.Fatalf("fell back to generation %d, want 1", st2.Generation())
	}
}

func TestOpenRemovesTempLeftovers(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "snapshot-0000000000000003.ngsnap.tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("crashed-snapshot temp file survived Open")
	}
}

func TestCorruptSnapshotChecksumDetected(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t, 30)
	st, _ := Open(dir, Options{})
	if err := st.Snapshot(g); err != nil {
		t.Fatal(err)
	}
	st.Close()
	path := filepath.Join(dir, "snapshot-0000000000000001.ngsnap")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF // flip a payload bit
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, _ := Open(dir, Options{})
	if _, err := st2.Load(); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupted snapshot loaded anyway (err=%v)", err)
	}
}
