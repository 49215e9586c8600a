package snap

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Store is a content-addressed on-disk checkpoint store. A checkpoint
// is a snapshot blob filed under its config digest and cycle:
//
//	dir/<digest[:2]>/<digest>.<cycle>.snap
//
// where the digest identifies the configuration (runner.CacheKey with
// the cycle stripped — Obs is already zeroed there, so a checkpoint
// taken on any machine at any parallelism serves every equivalent
// run). The cycle lives in the file name so the
// longest-prefix query — "latest checkpoint at or before cycle N" —
// is one directory scan, with no index file to keep consistent.
//
// Writes are crash-safe (temp file + rename in the same directory) and
// every file carries a sha256 trailer over its contents; a mismatch on
// read counts as a corrupt entry, which is deleted and reported via
// Stats — the repair path mirrors the result cache's.
type Store struct {
	dir     string
	cap     int64 // max total bytes; 0 = unlimited
	orphans int   // staging files NewStore removed

	mu      sync.Mutex
	hits    int64
	misses  int64
	writes  int64
	corrupt int64
	evicted int64
}

// StoreStats is a point-in-time summary of store activity and content.
type StoreStats struct {
	Entries int64
	Bytes   int64
	Hits    int64
	Misses  int64
	Writes  int64
	Corrupt int64
	Evicted int64
}

// storeMagic prefixes every checkpoint file (distinct from the blob
// magic inside, which the simulator checks on restore).
var storeMagic = [8]byte{'N', 'O', 'C', 'S', 'T', 'O', 'R', '1'}

// orphanAge is how old a staging file must be before NewStore removes
// it: a writer killed between CreateTemp and Rename leaves one behind,
// while a live writer's file is at most seconds old.
const orphanAge = time.Minute

// NewStore opens (creating if needed) a checkpoint store rooted at
// dir, removing orphaned staging files (see Orphans). capBytes caps the
// store's total size; 0 means unlimited.
func NewStore(dir string, capBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snap: create store dir: %w", err)
	}
	s := &Store{dir: dir, cap: capBytes}
	if err := s.sweepOrphans(); err != nil {
		return nil, fmt.Errorf("snap: sweeping store dir: %w", err)
	}
	return s, nil
}

// sweepOrphans removes the staging files (.snap-*) older than
// orphanAge. Their age is read against the file system's own clock, the
// mtime of a fresh probe file, since the simulator's packages never
// read the wall clock; the probe is made only when a staging file is
// found.
func (s *Store) sweepOrphans() error {
	var staged []entry
	err := filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasPrefix(d.Name(), ".snap-") {
			return err
		}
		if info, err := d.Info(); err == nil { // else a racing rename
			staged = append(staged, entry{path: path, mtime: info.ModTime().UnixNano()})
		}
		return nil
	})
	if err != nil || len(staged) == 0 {
		return err
	}
	probe, err := os.CreateTemp(s.dir, ".probe-*")
	if err != nil {
		return err
	}
	info, err := probe.Stat()
	probe.Close()
	os.Remove(probe.Name())
	if err != nil {
		return err
	}
	cutoff := info.ModTime().Add(-orphanAge).UnixNano()
	for _, e := range staged {
		if e.mtime < cutoff && os.Remove(e.path) == nil {
			s.orphans++
		}
	}
	return nil
}

// Orphans reports how many staging files opening the store removed.
func (s *Store) Orphans() int { return s.orphans }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(digest string, cycle int64) string {
	return filepath.Join(s.dir, digest[:2], fmt.Sprintf("%s.%d.snap", digest, cycle))
}

// Put files blob as the checkpoint of the given config digest at the
// given cycle, keyed by key (runner.CacheKey(config, cycle)); the key
// is verified on every read. The write is atomic: a torn write leaves
// at worst an ignored temp file.
func (s *Store) Put(digest string, cycle int64, key string, blob []byte) error {
	if len(digest) < 3 {
		return fmt.Errorf("snap: config digest %q too short", digest)
	}
	dst := s.path(digest, cycle)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("snap: store put: %w", err)
	}
	// File layout: magic, key, blob, then a sha256 trailer over
	// everything before it.
	buf := make([]byte, 0, len(storeMagic)+8+len(key)+8+len(blob)+sha256.Size)
	buf = append(buf, storeMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(blob)))
	buf = append(buf, blob...)
	sum := sha256.Sum256(buf)
	buf = append(buf, sum[:]...)

	tmp, err := os.CreateTemp(filepath.Dir(dst), ".snap-*")
	if err != nil {
		return fmt.Errorf("snap: store put: %w", err)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("snap: store put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("snap: store put: %w", err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("snap: store put: %w", err)
	}
	s.mu.Lock()
	s.writes++
	s.mu.Unlock()
	return s.evict()
}

// Get loads the checkpoint of digest at exactly the given cycle. The
// second return is false when no (intact) entry exists; a corrupt
// entry is deleted, counted, and reported as a miss.
func (s *Store) Get(digest string, cycle int64, key string) ([]byte, bool) {
	if len(digest) < 3 {
		return nil, false
	}
	blob, err := s.read(s.path(digest, cycle), key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if !os.IsNotExist(err) {
			s.corrupt++
		}
		s.misses++
		return nil, false
	}
	s.hits++
	return blob, true
}

// Find returns the latest checkpointed cycle of digest at or before
// maxCycle, or ok=false when none exists. It does not read the blob;
// pair with Get (which re-verifies) to load it.
func (s *Store) Find(digest string, maxCycle int64) (cycle int64, ok bool) {
	if len(digest) < 3 {
		return 0, false
	}
	ents, err := os.ReadDir(filepath.Join(s.dir, digest[:2]))
	if err != nil {
		return 0, false
	}
	prefix := digest + "."
	best := int64(-1)
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".snap") {
			continue
		}
		c, err := strconv.ParseInt(name[len(prefix):len(name)-len(".snap")], 10, 64)
		if err != nil || c > maxCycle {
			continue
		}
		if c > best {
			best = c
		}
	}
	return best, best >= 0
}

// read loads and verifies one checkpoint file. A failed checksum or
// key mismatch deletes the file and reports a non-IsNotExist error.
func (s *Store) read(path, key string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	blob, err := parseEntry(raw, key)
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	return blob, nil
}

func parseEntry(raw []byte, key string) ([]byte, error) {
	if len(raw) < len(storeMagic)+16+sha256.Size || string(raw[:len(storeMagic)]) != string(storeMagic[:]) {
		return nil, fmt.Errorf("snap: corrupt store entry (bad header)")
	}
	body, trailer := raw[:len(raw)-sha256.Size], raw[len(raw)-sha256.Size:]
	sum := sha256.Sum256(body)
	if string(sum[:]) != string(trailer) {
		return nil, fmt.Errorf("snap: corrupt store entry (checksum mismatch)")
	}
	// Each length is compared as a uint64 against the bytes left before
	// it becomes an int, so no length can wrap negative or overflow.
	off := len(storeMagic)
	klen := binary.LittleEndian.Uint64(body[off:])
	off += 8
	if klen > uint64(len(body)-off-8) {
		return nil, fmt.Errorf("snap: corrupt store entry (bad key length)")
	}
	gotKey := string(body[off : off+int(klen)])
	off += int(klen)
	if key != "" && gotKey != key {
		return nil, fmt.Errorf("snap: store entry key mismatch")
	}
	blen := binary.LittleEndian.Uint64(body[off:])
	off += 8
	if blen != uint64(len(body)-off) {
		return nil, fmt.Errorf("snap: corrupt store entry (bad blob length)")
	}
	return body[off:], nil
}

// entry is one on-disk checkpoint seen by the eviction/stats scans.
type entry struct {
	path  string
	size  int64
	mtime int64
}

// scan lists every checkpoint file under the store root.
func (s *Store) scan() ([]entry, error) {
	var out []entry
	err := filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".snap") {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return nil // racing delete; skip
		}
		out = append(out, entry{path: path, size: info.Size(), mtime: info.ModTime().UnixNano()})
		return nil
	})
	return out, err
}

// evict deletes oldest-modified checkpoints until the store fits its
// byte cap. Checkpoint blobs are large (a 64x64 simulation is tens of
// megabytes), so an unbounded store would swallow the disk long before
// the result cache could; the cap makes the store a sliding window
// over the most recently written prefixes.
func (s *Store) evict() error {
	if s.cap <= 0 {
		return nil
	}
	ents, err := s.scan()
	if err != nil {
		return fmt.Errorf("snap: store evict: %w", err)
	}
	var total int64
	for _, e := range ents {
		total += e.size
	}
	if total <= s.cap {
		return nil
	}
	sort.Slice(ents, func(i, j int) bool {
		if ents[i].mtime != ents[j].mtime {
			return ents[i].mtime < ents[j].mtime
		}
		return ents[i].path < ents[j].path // deterministic tie-break
	})
	for _, e := range ents {
		if total <= s.cap {
			break
		}
		if err := os.Remove(e.path); err == nil || os.IsNotExist(err) {
			total -= e.size
			s.mu.Lock()
			s.evicted++
			s.mu.Unlock()
		}
	}
	return nil
}

// Stats summarises the store: on-disk content plus activity counters.
func (s *Store) Stats() StoreStats {
	ents, _ := s.scan()
	var st StoreStats
	for _, e := range ents {
		st.Entries++
		st.Bytes += e.size
	}
	s.mu.Lock()
	st.Hits, st.Misses, st.Writes = s.hits, s.misses, s.writes
	st.Corrupt, st.Evicted = s.corrupt, s.evicted
	s.mu.Unlock()
	return st
}
