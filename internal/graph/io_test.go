package graph

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"testing"

	"ngfix/internal/vec"
)

func sampleGraph() *Graph {
	m := vec.NewMatrix(6, 2)
	for i := 0; i < 6; i++ {
		m.Row(i)[0] = float32(i)
		m.Row(i)[1] = float32(i % 3)
	}
	g := New(m, vec.Cosine)
	g.AddBaseEdge(0, 1)
	g.AddBaseEdge(1, 2)
	g.AddBaseEdge(2, 0)
	g.AddExtraEdge(3, 4, 17)
	g.AddExtraEdge(4, 5, InfEH)
	g.MarkDeleted(5)
	g.EntryPoint = 2
	return g
}

func TestWriteReadRoundTrip(t *testing.T) {
	g := sampleGraph()
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 6 || got.Metric != vec.Cosine || got.EntryPoint != 2 {
		t.Fatal("header mismatch")
	}
	if !got.IsDeleted(5) || got.IsDeleted(4) {
		t.Fatal("tombstones mismatch")
	}
	if got.ExtraNeighbors(4)[0].EH != InfEH || got.ExtraNeighbors(3)[0].EH != 17 {
		t.Fatal("EH tags mismatch")
	}
	for u := 0; u < 6; u++ {
		if len(got.BaseNeighbors(uint32(u))) != len(g.BaseNeighbors(uint32(u))) {
			t.Fatal("adjacency mismatch")
		}
	}
}

// Every truncation of a valid index stream must fail cleanly, never panic.
func TestReadTruncation(t *testing.T) {
	g := sampleGraph()
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut += 3 {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", cut, len(full))
		}
	}
}

func TestSaveLoad(t *testing.T) {
	g := sampleGraph()
	path := filepath.Join(t.TempDir(), "g.ngig")
	if err := g.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != g.Len() {
		t.Fatal("Load mismatch")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// oversizedIndex is a 40-byte index whose header claims 2^28 rows of
// dimension 2^16, the largest shape Read accepts, followed by four floats
// of payload.
func oversizedIndex() []byte {
	var b []byte
	for _, v := range []uint32{indexMagic, indexVersion, uint32(vec.L2), 1 << 28, 1 << 16, 0} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return append(b, make([]byte, 16)...)
}

// A header's claimed shape must not be allocated before the payload backs
// it: a whole-matrix allocation here (64 TiB) kills the process.
func TestReadOversizedHeader(t *testing.T) {
	if _, err := Read(bytes.NewReader(oversizedIndex())); err == nil {
		t.Fatal("40-byte index claiming 2^28 x 2^16 accepted")
	}
}

// FuzzRead checks that arbitrary bytes never panic the index reader, that
// anything it does accept passes validation, and that its encoding is
// canonical: re-encoding an accepted input and reading that back encodes
// to the same bytes again.
func FuzzRead(f *testing.F) {
	g := sampleGraph()
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x47, 0x49, 0x47, 0x4E, 1, 0, 0, 0})
	f.Add(oversizedIndex())
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if vErr := got.Validate(); vErr != nil {
			t.Fatalf("Read accepted an invalid graph: %v", vErr)
		}
		var first, second bytes.Buffer
		if err := got.Write(&first); err != nil {
			t.Fatal(err)
		}
		again, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded graph rejected: %v", err)
		}
		if err := again.Write(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("encoding not canonical: %d bytes, then %d", first.Len(), second.Len())
		}
	})
}
