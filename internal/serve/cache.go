package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"nocsim/internal/obs"
	"nocsim/internal/runner"
	"nocsim/internal/sim"
)

// Entry is one cached run result: the content address it lives under,
// the reproducibility manifest (config, seed, environment, counters
// hash), and the full metrics. The manifest's CountersHash doubles as
// the integrity check: it is recomputed from the stored metrics on
// every read, so a truncated, bit-rotted or hand-edited entry can never
// be served as a result.
type Entry struct {
	Key      string       `json:"key"`
	Manifest obs.Manifest `json:"manifest"`
	Metrics  sim.Metrics  `json:"metrics"`
}

// Verify recomputes the counters hash over the stored metrics and
// checks it — and the embedded key — against what the entry claims.
// Every cache read runs it before serving, and the daemon runs it on
// every result a delegate returns before filing it, so a result
// computed on a peer obeys exactly the invariants a local one does.
func (e *Entry) Verify(key string) error {
	if e.Key != key {
		return fmt.Errorf("serve: cache entry %s claims key %s", short(key), short(e.Key))
	}
	got := runner.CountersHash(e.Metrics)
	if got != e.Manifest.CountersHash {
		return fmt.Errorf("serve: cache entry %s failed verification: counters hash %s, manifest says %s",
			short(key), got, e.Manifest.CountersHash)
	}
	return nil
}

// CacheStats is a point-in-time summary of the cache.
type CacheStats struct {
	// Entries and Bytes describe what is on disk.
	Entries int64 `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Hits and Misses count Get outcomes since the cache was opened
	// (an unreadable or corrupt entry counts as a miss). Writes counts
	// successful Puts.
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	Writes   int64   `json:"writes"`
	HitRatio float64 `json:"hit_ratio"`
}

// Cache is the content-addressed on-disk result store. Keys are the
// runner's canonicalized config+cycles hashes; an entry is immutable
// once written (same key, same bytes up to environment metadata), so
// there is no invalidation — only verification. Entries are sharded
// into dir/<key[:2]>/<key>.json to keep directories small, and writes
// are crash-safe: marshal to a temp file in the shard directory, then
// rename into place, so a reader can never observe a torn entry.
type Cache struct {
	dir string

	mu      sync.Mutex
	entries int64
	bytes   int64
	hits    int64
	misses  int64
	writes  int64
}

// OpenCache opens (creating if needed) the cache rooted at dir and
// counts what it already holds.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: creating cache dir %s: %w", dir, err)
	}
	c := &Cache{dir: dir}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		c.entries++
		c.bytes += info.Size()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("serve: scanning cache dir %s: %w", dir, err)
	}
	return c, nil
}

// path maps a key to its sharded on-disk location.
func (c *Cache) path(key string) string {
	shard := key
	if len(shard) > 2 {
		shard = shard[:2]
	}
	return filepath.Join(c.dir, shard, key+".json")
}

// Contains reports whether key is present, without reading the entry or
// counting toward the hit/miss statistics (used to report cache status
// at submission time).
func (c *Cache) Contains(key string) bool {
	_, err := os.Stat(c.path(key))
	return err == nil
}

// Get returns the verified entry for key, or (nil, nil) on a clean
// miss. A present but unreadable, torn or hash-mismatched entry returns
// (nil, error) and counts as a miss: the caller logs it, re-simulates,
// and the subsequent Put overwrites the bad file.
func (c *Cache) Get(key string) (*Entry, error) {
	e, err := c.read(key)
	if e == nil {
		c.count(&c.misses)
	} else {
		c.count(&c.hits)
	}
	return e, err
}

// read is Get without the hit/miss accounting: the daemon reads a
// finished job's stored results back through it.
func (c *Cache) read(key string) (*Entry, error) {
	raw, err := os.ReadFile(c.path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: reading cache entry %s: %w", short(key), err)
	}
	var e Entry
	if err := json.Unmarshal(raw, &e); err != nil {
		return nil, fmt.Errorf("serve: decoding cache entry %s: %w", short(key), err)
	}
	if err := e.Verify(key); err != nil {
		return nil, err
	}
	return &e, nil
}

// Put stores the entry crash-safely: the bytes land in a temp file in
// the entry's shard directory and are renamed into place, so a
// concurrent or post-crash reader sees either the whole entry or none
// of it. Overwriting an existing key (e.g. repairing a corrupt entry)
// is safe for the same reason.
func (c *Cache) Put(e *Entry) error {
	path := c.path(e.Key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("serve: creating cache shard: %w", err)
	}
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: encoding cache entry %s: %w", short(e.Key), err)
	}
	b = append(b, '\n')
	tmp, err := os.CreateTemp(filepath.Dir(path), "put-*.tmp")
	if err != nil {
		return fmt.Errorf("serve: staging cache entry %s: %w", short(e.Key), err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: staging cache entry %s: %w", short(e.Key), err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: staging cache entry %s: %w", short(e.Key), err)
	}
	_, statErr := os.Stat(path)
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: committing cache entry %s: %w", short(e.Key), err)
	}
	c.mu.Lock()
	if statErr != nil { // key was new
		c.entries++
	}
	c.bytes += int64(len(b))
	c.writes++
	c.mu.Unlock()
	return nil
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{
		Entries: c.entries, Bytes: c.bytes,
		Hits: c.hits, Misses: c.misses, Writes: c.writes,
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRatio = float64(s.Hits) / float64(total)
	}
	return s
}

func (c *Cache) count(field *int64) {
	c.mu.Lock()
	*field++
	c.mu.Unlock()
}

// short abbreviates a content address for log and error messages.
func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
