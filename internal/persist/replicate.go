package persist

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sort"
)

// This file is the leader side of replication: a Store already owns the
// authoritative snapshot + op-log files, so serving a follower is just
// exposing read handles to them plus enough position information
// (generation, log length) for the follower to measure its lag. The
// follower never needs coordination with the append path — records are
// written with a single Write each, so a concurrent reader sees either a
// complete frame or a torn tail, and LogScanner stops cleanly at the
// latter and resumes from its offset on the next poll.

// ErrGenerationGone reports that the requested generation's files no
// longer exist — the leader snapshotted past it and advanceLocked deleted
// them. A follower tailing that generation cannot catch up by reading
// more log; it must resync from the leader's current snapshot.
var ErrGenerationGone = errors.New("persist: generation gone (resync from current snapshot)")

// ReplicationStatus is the leader's replication position. A follower
// compares it against its own (generation, applied offset) to compute
// lag.
type ReplicationStatus struct {
	// Generation is the active snapshot generation (0 = empty store).
	Generation uint64 `json:"generation"`
	// WALBytes is the length of the active generation's op log.
	WALBytes int64 `json:"walBytes"`
	// WALRecords is how many records the active log holds.
	WALRecords int `json:"walRecords"`
	// Shards is the leader's shard count, set by its HTTP endpoint so a
	// follower can refuse a layout it does not match. 0 means unknown
	// (a store or directory cannot tell).
	Shards int `json:"shards,omitempty"`
}

// ReplicationStatus returns the store's current position for followers.
func (s *Store) ReplicationStatus() ReplicationStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ReplicationStatus{Generation: s.gen, WALBytes: s.logBytes, WALRecords: s.ops}
}

// OpenSnapshot opens the active generation's snapshot for shipping to a
// follower, returning the generation it belongs to. The caller owns the
// ReadCloser. The file is immutable once published, so reading it races
// nothing; if a concurrent Snapshot deletes it mid-read the follower's
// DecodeSnapshot checksum fails and it simply retries.
func (s *Store) OpenSnapshot() (uint64, io.ReadCloser, error) {
	s.mu.Lock()
	gen := s.gen
	s.mu.Unlock()
	if gen == 0 {
		return 0, nil, errors.New("persist: store is empty (no snapshot to ship)")
	}
	rc, err := s.fs.Open(s.snapPath(gen))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			// Deleted between reading gen and opening: a newer generation
			// took over. The follower retries and gets the new one.
			return 0, nil, ErrGenerationGone
		}
		return 0, nil, fmt.Errorf("persist: open snapshot: %w", err)
	}
	return gen, rc, nil
}

// OpenWAL opens the op log of generation gen positioned at offset (bytes
// already applied by the follower). If gen is no longer the active
// generation — or the log cannot serve the offset — it returns
// ErrGenerationGone: the follower has an unbridgeable gap and must
// resync from the current snapshot. A log file that does not exist yet
// for the active generation (crash between snapshot publish and log
// create) or exactly ends at offset serves an empty stream, not an
// error: the follower is simply caught up.
func (s *Store) OpenWAL(gen uint64, offset int64) (io.ReadCloser, error) {
	s.mu.Lock()
	active := s.gen
	s.mu.Unlock()
	if gen != active {
		return nil, ErrGenerationGone
	}
	if offset < 0 {
		return nil, fmt.Errorf("persist: negative WAL offset %d", offset)
	}
	rc, err := s.fs.Open(s.logPath(gen))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			if offset == 0 {
				return io.NopCloser(emptyReader{}), nil
			}
			return nil, ErrGenerationGone
		}
		return nil, fmt.Errorf("persist: open op log: %w", err)
	}
	// FS.Open hands back a plain ReadCloser, so seek by discarding. If
	// the file is shorter than the follower's applied offset the log
	// shrank under it — only a resync recovers from that.
	if offset > 0 {
		n, err := io.CopyN(io.Discard, rc, offset)
		if err != nil && err != io.EOF {
			rc.Close()
			return nil, fmt.Errorf("persist: seek op log: %w", err)
		}
		if n < offset {
			rc.Close()
			return nil, ErrGenerationGone
		}
	}
	return rc, nil
}

type emptyReader struct{}

func (emptyReader) Read([]byte) (int, error) { return 0, io.EOF }

// SnapshotFileName and WALFileName name the files of generation gen, for
// followers tailing a leader's directory directly (same-host replicas)
// and for the HTTP replication layer to label streams.
func SnapshotFileName(gen uint64) string {
	return fmt.Sprintf("%s%016d%s", snapPrefix, gen, snapSuffix)
}

// WALFileName names generation gen's op log file.
func WALFileName(gen uint64) string {
	return fmt.Sprintf("%s%016d%s", logPrefix, gen, logSuffix)
}

// ScanGenerations lists the snapshot generations present in dir,
// descending (newest first). fsys nil means the real filesystem. Used by
// directory-following replicas to spot a leader's generation bump.
func ScanGenerations(fsys FS, dir string) ([]uint64, error) {
	if fsys == nil {
		fsys = osFS{}
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var gens []uint64
	for _, name := range names {
		if g, ok := parseGen(name, snapPrefix, snapSuffix); ok {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	return gens, nil
}
