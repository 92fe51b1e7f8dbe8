package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"ngfix/internal/vec"
)

// The on-disk vector format is a tiny header followed by row-major float32
// data, little-endian:
//
//	magic  uint32  = 0x4E474658 ("NGFX")
//	rows   uint32
//	dim    uint32
//	data   rows*dim float32
//
// It plays the role fvecs files play for the paper's datasets.
const vecMagic uint32 = 0x4E474658

// WriteMatrix serializes m to w.
func WriteMatrix(w io.Writer, m *vec.Matrix) error {
	bw := bufio.NewWriter(w)
	hdr := []uint32{vecMagic, uint32(m.Rows()), uint32(m.Dim())}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("dataset: write header: %w", err)
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, m.Data()); err != nil {
		return fmt.Errorf("dataset: write data: %w", err)
	}
	return bw.Flush()
}

// ReadMatrix deserializes a matrix written by WriteMatrix. Memory grows
// only with the payload actually present, whatever the header claims.
func ReadMatrix(r io.Reader) (*vec.Matrix, error) {
	br := bufio.NewReader(r)
	var magic, rows, dim uint32
	for _, p := range []*uint32{&magic, &rows, &dim} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("dataset: read header: %w", err)
		}
	}
	if magic != vecMagic {
		return nil, fmt.Errorf("dataset: bad magic %#x", magic)
	}
	if dim == 0 || dim > 1<<16 || rows > 1<<28 {
		return nil, fmt.Errorf("dataset: implausible shape %dx%d", rows, dim)
	}
	m, err := vec.ReadRows(br, int(rows), int(dim))
	if err != nil {
		return nil, fmt.Errorf("dataset: read data: %w", err)
	}
	return m, nil
}

// SaveMatrix writes m to path, creating or truncating the file.
func SaveMatrix(path string, m *vec.Matrix) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteMatrix(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadMatrix reads a matrix from path.
func LoadMatrix(path string) (*vec.Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadMatrix(f)
}
