package pq

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"ngfix/internal/vec"
)

// Quantizer wire format (all little-endian):
//
//	magic   uint32  0x4E475051 ("NGPQ")
//	version uint32  1
//	dim     uint32
//	m       uint32
//	ks      uint32  effective KS after any training clamp
//	iters   uint32  Config.Iters (round-tripped so Config compares equal)
//	seed    int64   Config.Seed
//	rows    uint64
//	centroids M × KS × sub float32 (bit patterns, row-major per subspace)
//	codes   rows × M bytes
//
// Centroids and codes round-trip bit-identically: a recovered quantizer
// encodes exactly the bytes the persisted one would, which is what lets
// recovery re-encode WAL-replayed inserts instead of retraining.
const (
	codecMagic   = 0x4E475051
	codecVersion = 1
)

// Encode serializes the quantizer. The caller owns framing and
// checksumming (the persist layer wraps this payload the same way it
// wraps snapshots).
func (q *Quantizer) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var hdr [40]byte
	binary.LittleEndian.PutUint32(hdr[0:], codecMagic)
	binary.LittleEndian.PutUint32(hdr[4:], codecVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(q.dim))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(q.cfg.M))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(q.cfg.KS))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(q.cfg.Iters))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(q.cfg.Seed))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(q.rows))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var fb [4]byte
	for _, cents := range q.centroids {
		for _, v := range cents.Data() {
			binary.LittleEndian.PutUint32(fb[:], math.Float32bits(v))
			if _, err := bw.Write(fb[:]); err != nil {
				return err
			}
		}
	}
	if _, err := bw.Write(q.codes); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadQuantizer deserializes a quantizer written by Encode.
func ReadQuantizer(r io.Reader) (*Quantizer, error) {
	var hdr [40]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pq: reading header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != codecMagic {
		return nil, fmt.Errorf("pq: bad magic 0x%08x", m)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != codecVersion {
		return nil, fmt.Errorf("pq: unsupported version %d", v)
	}
	dim := int(binary.LittleEndian.Uint32(hdr[8:]))
	m := int(binary.LittleEndian.Uint32(hdr[12:]))
	ks := int(binary.LittleEndian.Uint32(hdr[16:]))
	iters := int(binary.LittleEndian.Uint32(hdr[20:]))
	seed := int64(binary.LittleEndian.Uint64(hdr[24:]))
	rows := int(binary.LittleEndian.Uint64(hdr[32:]))
	if dim <= 0 || m <= 0 || dim%m != 0 || ks <= 0 || ks > 256 || rows < 0 {
		return nil, fmt.Errorf("pq: corrupt header (dim=%d m=%d ks=%d rows=%d)", dim, m, ks, rows)
	}
	q := &Quantizer{
		cfg:  Config{M: m, KS: ks, Iters: iters, Seed: seed},
		dim:  dim,
		sub:  dim / m,
		rows: rows,
	}
	q.centroids = make([]*vec.Matrix, m)
	buf := make([]byte, ks*q.sub*4)
	for i := 0; i < m; i++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("pq: reading centroids: %w", err)
		}
		cents := vec.NewMatrix(ks, q.sub)
		data := cents.Data()
		for j := range data {
			data[j] = math.Float32frombits(binary.LittleEndian.Uint32(buf[j*4:]))
		}
		q.centroids[i] = cents
	}
	q.deriveCols()
	q.codes = make([]byte, rows*m)
	if _, err := io.ReadFull(r, q.codes); err != nil {
		return nil, fmt.Errorf("pq: reading codes: %w", err)
	}
	return q, nil
}
