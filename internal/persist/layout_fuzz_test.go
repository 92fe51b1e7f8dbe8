package persist

import (
	"bytes"
	"io"
	"testing"
)

// recordFS serves data for every Open; the decoders under fuzz only read.
type recordFS struct {
	FS
	data []byte
}

func (r recordFS) Open(string) (io.ReadCloser, error) {
	return io.NopCloser(bytes.NewReader(r.data)), nil
}

// FuzzReadManifest: the manifest decoder on arbitrary bytes never panics
// and accepts only the current version with a usable topology.
func FuzzReadManifest(f *testing.F) {
	for _, seed := range []string{
		`{"version":3,"shards":1,"epoch":0}`,
		`{"version":3,"shards":4,"epoch":2}`,
		`{"version":1,"shards":2}`,
		`{"version":2,"shards":4,"epoch":1}`,
		`{"version":3,"shards":4,"epo`,
		`{"version":3,"shards":4,"epoch":-1}`,
		`{"version":3,"shards":0}`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, ok, err := ReadManifest(recordFS{data: data}, "root")
		if err != nil || !ok {
			return
		}
		if m.Version != manifestVersion || m.Shards < 1 || m.Epoch < 0 {
			t.Fatalf("ReadManifest accepted %+v from %q", m, data)
		}
	})
}

// FuzzReadReshardIntent: the intent decoder on arbitrary bytes never
// panics and accepts only a well-formed N→2N, e→e+1 split.
func FuzzReadReshardIntent(f *testing.F) {
	for _, seed := range []string{
		`{"version":1,"fromShards":2,"toShards":4,"fromEpoch":0,"toEpoch":1}`,
		`{"version":1,"fromShards":1,"toShards":2,"fromEpoch":3,"toEpoch":4}`,
		`{"version":2,"fromShards":2,"toShards":4,"fromEpoch":0,"toEpoch":1}`,
		`{"version":1,"fromShards":2,"toShards":3,"fromEpoch":0,"toEpoch":1}`,
		`{"version":1,"fromShards":2,"toShards":4,"fromEpoch":-1,"toEpoch":0}`,
		`{"version":1,"fromShards":2,"toSh`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in, ok, err := ReadReshardIntent(recordFS{data: data}, "root")
		if err != nil || !ok {
			return
		}
		if in.FromShards < 1 || in.FromEpoch < 0 || in.ToShards != 2*in.FromShards || in.ToEpoch != in.FromEpoch+1 {
			t.Fatalf("ReadReshardIntent accepted %+v from %q", in, data)
		}
	})
}
