package replica

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"

	"ngfix/internal/persist"
)

// Source is where a replica pulls its shard's state from: the leader's
// replication position, its current snapshot, and its op log. Three
// implementations cover the deployment shapes: StoreSource reads a live
// Store in-process (a live reshard's children catching up),
// DirSource follows the leader's persistence directory on shared storage
// (same-host tests, NFS), and HTTPSource speaks the server's
// /v1/replicate/* endpoints across machines.
//
// All three return persist.ErrGenerationGone when the requested WAL
// generation can no longer be served — the replica's cue that more
// tailing cannot close the gap and only a fresh snapshot can.
type Source interface {
	// Status returns the leader's current replication position.
	Status() (persist.ReplicationStatus, error)
	// Snapshot opens the leader's newest snapshot stream, returning the
	// generation it seals. The caller owns the ReadCloser and must run
	// the bytes through persist.DecodeSnapshot (the checksum is the only
	// thing standing between a cut transfer and a silently short graph).
	Snapshot() (uint64, io.ReadCloser, error)
	// WAL opens generation gen's op log positioned at offset — the byte
	// just past the last record the replica applied.
	WAL(gen uint64, offset int64) (io.ReadCloser, error)
}

// StoreSource serves replication straight from a live Store — the
// in-process path a live reshard's children stream the parent through.
// Reads never take the fixer's locks, only the store's brief position
// mutex, so a wedged leader WAL (appends blocked, not failed) does not
// stop a replica from tailing what was already written.
type StoreSource struct {
	St *persist.Store
}

func (s StoreSource) Status() (persist.ReplicationStatus, error) {
	return s.St.ReplicationStatus(), nil
}

func (s StoreSource) Snapshot() (uint64, io.ReadCloser, error) { return s.St.OpenSnapshot() }

func (s StoreSource) WAL(gen uint64, offset int64) (io.ReadCloser, error) {
	return s.St.OpenWAL(gen, offset)
}

// DirSource follows a leader's persistence directory through the
// filesystem — the same-host / shared-storage deployment, and the
// fault-injection surface for tests (a directory can be copied, frozen,
// or truncated at will). It holds no handles between calls, so the
// leader rotating generations under it surfaces as ErrGenerationGone on
// the next poll, exactly like the other sources.
type DirSource struct {
	Dir string
}

func (d DirSource) Status() (persist.ReplicationStatus, error) {
	gens, err := persist.ScanGenerations(nil, d.Dir)
	if err != nil {
		return persist.ReplicationStatus{}, fmt.Errorf("replica: scan %s: %w", d.Dir, err)
	}
	if len(gens) == 0 {
		return persist.ReplicationStatus{}, fmt.Errorf("replica: no snapshot in %s", d.Dir)
	}
	st := persist.ReplicationStatus{Generation: gens[0]}
	f, err := os.Open(filepath.Join(d.Dir, persist.WALFileName(st.Generation)))
	if err != nil {
		if os.IsNotExist(err) {
			return st, nil // snapshot published, log not yet created: position zero
		}
		return persist.ReplicationStatus{}, err
	}
	defer f.Close()
	// Count only intact records: the file may end in a torn append, and
	// the position must always name a record boundary.
	sc := persist.NewLogScanner(f, 0)
	for sc.Next() {
		st.WALRecords++
	}
	st.WALBytes = sc.Offset()
	return st, nil
}

func (d DirSource) Snapshot() (uint64, io.ReadCloser, error) {
	st, err := d.Status()
	if err != nil {
		return 0, nil, err
	}
	f, err := os.Open(filepath.Join(d.Dir, persist.SnapshotFileName(st.Generation)))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil, persist.ErrGenerationGone // rotated between scan and open
		}
		return 0, nil, err
	}
	return st.Generation, f, nil
}

func (d DirSource) WAL(gen uint64, offset int64) (io.ReadCloser, error) {
	f, err := os.Open(filepath.Join(d.Dir, persist.WALFileName(gen)))
	if err != nil {
		if os.IsNotExist(err) {
			// Distinguish "rotated away" from "not created yet": if the
			// generation's snapshot is also gone, the leader moved on.
			if _, serr := os.Stat(filepath.Join(d.Dir, persist.SnapshotFileName(gen))); serr != nil {
				return nil, persist.ErrGenerationGone
			}
			if offset == 0 {
				return io.NopCloser(emptyReader{}), nil
			}
			return nil, persist.ErrGenerationGone
		}
		return nil, err
	}
	if offset > 0 {
		n, err := io.CopyN(io.Discard, f, offset)
		if err != nil && err != io.EOF {
			f.Close()
			return nil, err
		}
		if n < offset {
			f.Close()
			return nil, persist.ErrGenerationGone // log shrank under the follower
		}
	}
	return f, nil
}

type emptyReader struct{}

func (emptyReader) Read([]byte) (int, error) { return 0, io.EOF }

// HTTPSource replicates over the server's /v1/replicate/* endpoints —
// the cross-machine deployment. A 410 Gone maps to ErrGenerationGone;
// every other non-200 is a transient error the replica's backoff
// absorbs.
type HTTPSource struct {
	// Base is the leader's root URL, e.g. "http://host:8080".
	Base string
	// Shard selects which of the leader's shards to follow.
	Shard int
	// Client is the HTTP client (nil → http.DefaultClient).
	Client *http.Client
}

func (h HTTPSource) client() *http.Client {
	if h.Client != nil {
		return h.Client
	}
	return http.DefaultClient
}

func (h HTTPSource) get(path string, q url.Values) (*http.Response, error) {
	u := h.Base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	resp, err := h.client().Get(u)
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return resp, nil
	case http.StatusGone:
		resp.Body.Close()
		return nil, persist.ErrGenerationGone
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		resp.Body.Close()
		return nil, fmt.Errorf("replica: %s: %s: %s", path, resp.Status, body)
	}
}

func (h HTTPSource) Status() (persist.ReplicationStatus, error) {
	resp, err := h.get("/v1/replicate/status", url.Values{"shard": {strconv.Itoa(h.Shard)}})
	if err != nil {
		return persist.ReplicationStatus{}, err
	}
	defer resp.Body.Close()
	var st persist.ReplicationStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return persist.ReplicationStatus{}, fmt.Errorf("replica: decode status: %w", err)
	}
	return st, nil
}

func (h HTTPSource) Snapshot() (uint64, io.ReadCloser, error) {
	resp, err := h.get("/v1/replicate/snapshot", url.Values{"shard": {strconv.Itoa(h.Shard)}})
	if err != nil {
		return 0, nil, err
	}
	gen, err := strconv.ParseUint(resp.Header.Get(GenerationHeader), 10, 64)
	if err != nil || gen == 0 {
		resp.Body.Close()
		return 0, nil, fmt.Errorf("replica: snapshot response missing %s header", GenerationHeader)
	}
	return gen, resp.Body, nil
}

func (h HTTPSource) WAL(gen uint64, offset int64) (io.ReadCloser, error) {
	resp, err := h.get("/v1/replicate/wal", url.Values{
		"shard":  {strconv.Itoa(h.Shard)},
		"gen":    {strconv.FormatUint(gen, 10)},
		"offset": {strconv.FormatInt(offset, 10)},
	})
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// GenerationHeader carries the snapshot's generation on
// /v1/replicate/snapshot responses.
const GenerationHeader = "X-Ngfix-Generation"
