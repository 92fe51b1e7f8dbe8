// Package persist gives the online serving path crash safety: atomic,
// checksummed graph snapshots plus an append-only operation log recording
// the inserts, deletes, and fix-batch edge additions that happen between
// snapshots. Restart recovers the last acknowledged state by loading the
// newest valid snapshot and replaying the log over it, tolerating a torn
// final record.
//
// A Store owns one directory holding, per generation g,
//
//	snapshot-<g>.ngsnap   the full graph at the moment the generation began
//	oplog-<g>.wal         every durable mutation since that snapshot
//
// Writing a new snapshot starts generation g+1 with an empty log and
// deletes older generations. The serving sequence is:
//
//	st, _ := persist.Open(dir, persist.Options{})
//	if st.HasState() {
//	        g, _ := st.Load()        // newest valid snapshot
//	        n, _ := st.Replay(apply) // log over it, stopping at a torn tail
//	}
//	st.Snapshot(g)                   // seal recovery into a fresh generation
//	...                              // serve: Append / Snapshot as ops flow
//	st.Snapshot(g); st.Close()       // final snapshot on graceful shutdown
//
// Sealing a fresh generation right after replay means the store never
// appends to a log that might end in a torn record.
//
// Store implements the fixer's durability hook (core.WAL): LogInsert,
// LogDelete, and LogFixEdges append ops; Snapshot begins a generation.
package persist

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ngfix/internal/graph"
)

// Options configures a Store.
type Options struct {
	// FS is the filesystem implementation (nil → the real one). Tests
	// inject failing filesystems here.
	FS FS
	// NoSync skips fsyncs on appends and snapshots. Only for tests and
	// benchmarks; it trades durability of the most recent ops for speed.
	NoSync bool
}

// Store is a snapshot + op-log persistence root over one directory. All
// methods are safe for concurrent use, though the serving layer already
// serializes appends and snapshots behind the fixer's mutation mutex.
type Store struct {
	mu   sync.Mutex
	fs   FS
	dir  string
	sync bool

	gens     []uint64 // generations with a snapshot present, descending
	gen      uint64   // active generation (0 = empty store)
	log      File     // append handle for the active generation's op log
	ops      int      // records appended to the active log
	logBytes int64    // bytes appended to the active log

	logErr error // first append failure since the last good snapshot

	metrics *storeMetrics // nil until RegisterMetrics; nil-safe observers
}

const (
	snapPrefix = "snapshot-"
	snapSuffix = ".ngsnap"
	logPrefix  = "oplog-"
	logSuffix  = ".wal"
)

// Open scans dir (creating it if needed) and returns a store positioned
// at the newest snapshot generation found. Leftover temporary files from
// a crashed snapshot attempt are removed.
func Open(dir string, opts Options) (*Store, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = osFS{}
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("persist: create dir: %w", err)
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("persist: scan dir: %w", err)
	}
	s := &Store{fs: fsys, dir: dir, sync: !opts.NoSync}
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			fsys.Remove(filepath.Join(dir, name)) // crashed mid-snapshot
			continue
		}
		if g, ok := parseGen(name, snapPrefix, snapSuffix); ok {
			s.gens = append(s.gens, g)
		}
	}
	sort.Slice(s.gens, func(i, j int) bool { return s.gens[i] > s.gens[j] })
	if len(s.gens) > 0 {
		s.gen = s.gens[0]
	}
	return s, nil
}

func parseGen(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	g, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	return g, err == nil && g > 0
}

func (s *Store) snapPath(gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%016d%s", snapPrefix, gen, snapSuffix))
}

func (s *Store) logPath(gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%016d%s", logPrefix, gen, logSuffix))
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// HasState reports whether the directory holds at least one snapshot.
func (s *Store) HasState() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.gens) > 0
}

// Generation returns the active snapshot generation (0 for an empty
// store).
func (s *Store) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// PendingOps returns how many records have been appended to the active
// log since the last snapshot.
func (s *Store) PendingOps() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ops
}

// Load returns the graph from the newest readable snapshot, falling back
// to older generations when a newer file fails its checksum or decode.
// The chosen generation becomes the one Replay reads.
func (s *Store) Load() (*graph.Graph, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	for _, gen := range s.gens {
		g, err := readSnapshotFile(s.fs, s.snapPath(gen))
		if err == nil {
			s.gen = gen
			return g, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		return nil, errors.New("persist: store is empty")
	}
	return nil, fmt.Errorf("persist: no readable snapshot in %s: %w", s.dir, firstErr)
}

// Replay streams the active generation's op log into apply in append
// order, returning how many intact records were delivered. A missing log
// (crash between snapshot publish and log creation) replays zero ops; a
// torn tail ends the stream without error.
func (s *Store) Replay(apply func(Op) error) (int, error) {
	s.mu.Lock()
	gen := s.gen
	s.mu.Unlock()
	if gen == 0 {
		return 0, nil
	}
	rc, err := s.fs.Open(s.logPath(gen))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, fmt.Errorf("persist: open op log: %w", err)
	}
	defer rc.Close()
	return readLog(rc, apply)
}

// Snapshot atomically persists g as a new generation: the snapshot file
// is written next to the data, fsynced, renamed into place, a fresh empty
// op log is opened, and older generations are deleted. On failure the
// previous generation (snapshot and log) is untouched and remains the
// recovery point.
func (s *Store) Snapshot(g *graph.Graph) error {
	return s.snapshotWith(g, nil)
}

func (s *Store) closeLogLocked() {
	if s.log != nil {
		s.log.Close()
		s.log = nil
	}
}

// advanceLocked makes newGen the only generation and removes older files.
func (s *Store) advanceLocked(newGen uint64) {
	s.gen = newGen
	s.ops = 0
	s.logBytes = 0
	// Best-effort cleanup of everything older than the new generation.
	if names, err := s.fs.ReadDir(s.dir); err == nil {
		for _, name := range names {
			old, ok := parseGen(name, snapPrefix, snapSuffix)
			if !ok {
				old, ok = parseGen(name, logPrefix, logSuffix)
			}
			if !ok {
				old, ok = parseGen(name, pqPrefix, pqSuffix)
			}
			if ok && old < newGen {
				s.fs.Remove(filepath.Join(s.dir, name))
			}
		}
	}
	s.gens = []uint64{newGen}
}

// Append adds one op to the active log with a single write (torn records
// are therefore always a suffix) and, unless NoSync was set, fsyncs
// before returning, so an acknowledged op survives a crash. After an
// append failure the log may end mid-record, so the store refuses further
// appends until a Snapshot begins a clean generation.
func (s *Store) Append(op Op) (err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	defer func() { s.metrics.observeAppend(time.Since(start).Seconds(), err) }()
	if s.log == nil {
		if s.logErr != nil {
			return fmt.Errorf("persist: op log unavailable since: %w", s.logErr)
		}
		return errors.New("persist: no active op log (Snapshot first)")
	}
	if s.logErr != nil {
		return fmt.Errorf("persist: op log broken since: %w", s.logErr)
	}
	frame, err := frameOp(op)
	if err != nil {
		return err
	}
	if _, err := s.log.Write(frame); err != nil {
		s.logErr = err
		return fmt.Errorf("persist: append op: %w", err)
	}
	if s.sync {
		if err := s.log.Sync(); err != nil {
			s.logErr = err
			return fmt.Errorf("persist: sync op log: %w", err)
		}
	}
	s.ops++
	s.logBytes += int64(len(frame))
	return nil
}

// LogInsert implements the fixer's durability hook.
func (s *Store) LogInsert(v []float32) error { return s.Append(Op{Kind: OpInsert, Vector: v}) }

// LogDelete implements the fixer's durability hook.
func (s *Store) LogDelete(id uint32) error { return s.Append(Op{Kind: OpDelete, ID: id}) }

// LogFixEdges implements the fixer's durability hook.
func (s *Store) LogFixEdges(updates []graph.ExtraUpdate) error {
	return s.Append(Op{Kind: OpFixEdges, Updates: updates})
}

// Close releases the op-log handle. It does not snapshot; callers wanting
// a clean shutdown snapshot first.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	s.log = nil
	return err
}
