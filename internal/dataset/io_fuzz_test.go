package dataset

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ngfix/internal/vec"
)

// FuzzReadMatrix checks the vector-file reader never panics on arbitrary
// input and that truncations of valid files are rejected.
func FuzzReadMatrix(f *testing.F) {
	m := vec.MatrixFromRows([][]float32{{1, 2, 3}, {4, 5, 6}})
	var buf bytes.Buffer
	if err := WriteMatrix(&buf, m); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:7])
	f.Add([]byte{})
	f.Add(oversizedMatrix())
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadMatrix(bytes.NewReader(data))
		if err == nil && (got.Dim() <= 0 || got.Rows() < 0) {
			t.Fatal("reader accepted an impossible shape")
		}
	})
}

func TestReadMatrixTruncation(t *testing.T) {
	m := vec.MatrixFromRows([][]float32{{1, 2}, {3, 4}, {5, 6}})
	var buf bytes.Buffer
	if err := WriteMatrix(&buf, m); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut += 2 {
		if _, err := ReadMatrix(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(full))
		}
	}
}

// oversizedMatrix is a 28-byte file whose header claims 2^28 rows of
// dimension 2^16, the largest shape the reader accepts, followed by four
// floats of payload.
func oversizedMatrix() []byte {
	b := binary.LittleEndian.AppendUint32(nil, vecMagic)
	b = binary.LittleEndian.AppendUint32(b, 1<<28)
	b = binary.LittleEndian.AppendUint32(b, 1<<16)
	return append(b, make([]byte, 16)...)
}

// A header's claimed shape must not be allocated before the payload backs
// it: a whole-matrix allocation here (64 TiB) kills the process.
func TestReadMatrixOversizedHeader(t *testing.T) {
	if _, err := ReadMatrix(bytes.NewReader(oversizedMatrix())); err == nil {
		t.Fatal("28-byte file claiming 2^28 x 2^16 accepted")
	}
}
