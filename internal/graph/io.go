package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"ngfix/internal/vec"
)

// Binary index format (little-endian):
//
//	magic   uint32 = 0x4E474947 ("NGIG")
//	version uint32 = 1
//	metric  uint32
//	rows    uint32
//	dim     uint32
//	entry   uint32
//	vectors rows*dim float32
//	per vertex: baseDeg uint32, base ids...,
//	            extraDeg uint32, (id uint32, eh uint16)...,
//	            deleted uint8
const (
	indexMagic   uint32 = 0x4E474947
	indexVersion uint32 = 1
)

// Write serializes the graph (vectors, both edge segments with EH tags,
// tombstones, entry point) to w.
func (g *Graph) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	le := binary.LittleEndian
	head := []uint32{indexMagic, indexVersion, uint32(g.Metric), uint32(g.Len()), uint32(g.Dim()), g.EntryPoint}
	for _, v := range head {
		if err := binary.Write(bw, le, v); err != nil {
			return fmt.Errorf("graph: write header: %w", err)
		}
	}
	if err := binary.Write(bw, le, g.Vectors.Data()); err != nil {
		return fmt.Errorf("graph: write vectors: %w", err)
	}
	for u, a := range g.adj {
		tags := g.eh[u]
		nb := len(a) - len(tags)
		if err := binary.Write(bw, le, uint32(nb)); err != nil {
			return err
		}
		if err := binary.Write(bw, le, a[:nb]); err != nil {
			return err
		}
		if err := binary.Write(bw, le, uint32(len(tags))); err != nil {
			return err
		}
		for i, t := range tags {
			if err := binary.Write(bw, le, a[nb+i]); err != nil {
				return err
			}
			if err := binary.Write(bw, le, t); err != nil {
				return err
			}
		}
		var del uint8
		if g.deleted[u] {
			del = 1
		}
		if err := binary.Write(bw, le, del); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read deserializes a graph written by Write. The header's shape is
// bounded, and the vectors are read in chunks, so memory grows only with
// the bytes actually present; every later allocation is bounded by the
// row count those bytes proved.
func Read(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	le := binary.LittleEndian
	var magic, version, metric, rows, dim, entry uint32
	for _, p := range []*uint32{&magic, &version, &metric, &rows, &dim, &entry} {
		if err := binary.Read(br, le, p); err != nil {
			return nil, fmt.Errorf("graph: read header: %w", err)
		}
	}
	if magic != indexMagic {
		return nil, fmt.Errorf("graph: bad magic %#x", magic)
	}
	if version != indexVersion {
		return nil, fmt.Errorf("graph: unsupported version %d", version)
	}
	if !vec.Metric(metric).Valid() {
		return nil, fmt.Errorf("graph: invalid metric %d", metric)
	}
	if dim == 0 || dim > 1<<16 || rows > 1<<28 {
		return nil, fmt.Errorf("graph: implausible shape %dx%d", rows, dim)
	}
	m, err := vec.ReadRows(br, int(rows), int(dim))
	if err != nil {
		return nil, fmt.Errorf("graph: read vectors: %w", err)
	}
	g := New(m, vec.Metric(metric))
	for u := uint32(0); u < rows; u++ {
		var baseDeg uint32
		if err := binary.Read(br, le, &baseDeg); err != nil {
			return nil, err
		}
		if baseDeg > rows {
			return nil, fmt.Errorf("graph: vertex %d degree %d out of range", u, baseDeg)
		}
		base := make([]uint32, baseDeg)
		if err := binary.Read(br, le, base); err != nil {
			return nil, err
		}
		g.SetBaseNeighbors(u, base)
		var extraDeg uint32
		if err := binary.Read(br, le, &extraDeg); err != nil {
			return nil, err
		}
		if extraDeg > rows {
			return nil, fmt.Errorf("graph: vertex %d extra degree %d out of range", u, extraDeg)
		}
		extra := make([]ExtraEdge, extraDeg)
		for i := range extra {
			if err := binary.Read(br, le, &extra[i].To); err != nil {
				return nil, err
			}
			if err := binary.Read(br, le, &extra[i].EH); err != nil {
				return nil, err
			}
		}
		g.SetExtraNeighbors(u, extra)
		var del uint8
		if err := binary.Read(br, le, &del); err != nil {
			return nil, err
		}
		if del != 0 {
			g.MarkDeleted(u)
		}
	}
	g.EntryPoint = entry
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: loaded index invalid: %w", err)
	}
	return g, nil
}

// Save writes the graph to path atomically: the bytes go to a temporary
// file in the same directory, are fsynced, and are renamed into place, so
// a crash mid-save never leaves a torn index behind an existing path.
func (g *Graph) Save(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := g.Write(f); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Load reads a graph from path.
func Load(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
