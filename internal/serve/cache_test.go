package serve_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"nocsim/internal/noc"
	"nocsim/internal/obs"
	"nocsim/internal/serve"
	"nocsim/internal/sim"
)

// fakeEntry builds a self-consistent entry: metrics with distinctive
// counters and a manifest whose hash actually covers them.
func fakeEntry(key string) *serve.Entry {
	m := sim.Metrics{
		Cycles:  1234,
		Nodes:   16,
		Retired: []int64{10, 20, 30},
		Misses:  7,
		Net:     noc.Stats{Cycles: 1234, FlitsInjected: 500, FlitsEjected: 490, Deflections: 12},
	}
	var retired int64
	for _, r := range m.Retired {
		retired += r
	}
	return &serve.Entry{
		Key: key,
		Manifest: obs.Manifest{
			Label:        "fake",
			Cycles:       m.Cycles,
			Nodes:        m.Nodes,
			CountersHash: obs.HashCounters(m.Net, retired, m.Misses),
			Config:       json.RawMessage(`{}`),
		},
		Metrics: m,
	}
}

func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := serve.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ab", 32)

	if c.Contains(key) {
		t.Fatal("empty cache claims to contain the key")
	}
	if e, err := c.Get(key); e != nil || err != nil {
		t.Fatalf("Get on empty cache = (%v, %v), want clean miss", e, err)
	}

	in := fakeEntry(key)
	if err := c.Put(in); err != nil {
		t.Fatal(err)
	}
	if !c.Contains(key) {
		t.Fatal("cache does not contain the key after Put")
	}
	out, err := c.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatal("entry did not round-trip")
	}

	cs := c.Stats()
	if cs.Entries != 1 || cs.Writes != 1 || cs.Hits != 1 || cs.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 entry, 1 write, 1 hit, 1 miss", cs)
	}
	if cs.HitRatio != 0.5 {
		t.Fatalf("hit ratio = %v, want 0.5", cs.HitRatio)
	}
}

// TestCacheReopen pins persistence: a reopened cache sees the entries
// and serves them without re-simulation.
func TestCacheReopen(t *testing.T) {
	dir := t.TempDir()
	c1, err := serve.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("cd", 32)
	if err := c1.Put(fakeEntry(key)); err != nil {
		t.Fatal(err)
	}

	c2, err := serve.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cs := c2.Stats(); cs.Entries != 1 || cs.Bytes == 0 {
		t.Fatalf("reopened stats = %+v, want the persisted entry counted", cs)
	}
	if e, err := c2.Get(key); err != nil || e == nil {
		t.Fatalf("reopened Get = (%v, %v), want the persisted entry", e, err)
	}
}

// TestCacheRejectsTamperedEntries pins verification: an entry whose
// stored metrics no longer match its manifest hash — or whose embedded
// key disagrees with its address — is an error, not a hit.
func TestCacheRejectsTamperedEntries(t *testing.T) {
	dir := t.TempDir()
	c, err := serve.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ef", 32)

	tampered := fakeEntry(key)
	tampered.Metrics.Net.Deflections++ // counters drift from the manifest hash
	if err := c.Put(tampered); err != nil {
		t.Fatal(err)
	}
	if e, err := c.Get(key); err == nil || !strings.Contains(err.Error(), "serve:") {
		t.Fatalf("tampered Get = (%v, %v), want a serve:-prefixed verification error", e, err)
	}

	wrongKey := fakeEntry(strings.Repeat("00", 32))
	wrongKey.Key = key // address and embedded key disagree after Put under key
	path := filepath.Join(dir, key[:2], key+".json")
	if err := c.Put(wrongKey); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_ = raw // entry on disk is self-consistent; now corrupt the JSON itself
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if e, err := c.Get(key); err == nil || e != nil {
		t.Fatalf("corrupt Get = (%v, %v), want a decode error", e, err)
	}
}

// TestCacheOverwrite pins repair: Put over an existing key replaces the
// entry without double-counting it.
func TestCacheOverwrite(t *testing.T) {
	c, err := serve.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("12", 32)
	if err := c.Put(fakeEntry(key)); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(fakeEntry(key)); err != nil {
		t.Fatal(err)
	}
	if cs := c.Stats(); cs.Entries != 1 || cs.Writes != 2 {
		t.Fatalf("stats after overwrite = %+v, want 1 entry, 2 writes", cs)
	}
}

// FuzzCacheEntry writes arbitrary bytes where a key's entry lives: Get
// must never panic, and any entry it returns must pass Verify(key).
func FuzzCacheEntry(f *testing.F) {
	dir := f.TempDir()
	c, err := serve.OpenCache(dir)
	if err != nil {
		f.Fatal(err)
	}
	key := strings.Repeat("cd", 32)
	if err := c.Put(fakeEntry(key)); err != nil {
		f.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*", key+".json"))
	if err != nil || len(paths) != 1 {
		f.Fatalf("entry file of %s: %v %v", key, paths, err)
	}
	path := paths[0]
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	tampered := bytes.Replace(good, []byte(`"Misses": 7`), []byte(`"Misses": 8`), 1)
	if bytes.Equal(tampered, good) {
		f.Fatal("the entry file has no Misses counter to tamper with")
	}
	f.Add(good)
	f.Add(tampered)
	f.Add(good[:len(good)/2])
	f.Add([]byte(`{"key":"` + key + `","metrics":{"Retired":null}}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := c.Get(key)
		if e == nil {
			return
		}
		if err != nil {
			t.Fatalf("Get returned an entry and the error %v", err)
		}
		if err := e.Verify(key); err != nil {
			t.Fatalf("Get returned an entry that fails verification: %v", err)
		}
	})
}

// TestCacheOverwriteBytes pins the byte count across an overwrite: the
// replaced file's size leaves the count as the new one's enters, so it
// equals what a fresh open counts on disk.
func TestCacheOverwriteBytes(t *testing.T) {
	dir := t.TempDir()
	c, err := serve.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("34", 32)
	for range 2 {
		if err := c.Put(fakeEntry(key)); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := serve.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.Stats().Bytes, fresh.Stats().Bytes; got != want {
		t.Fatalf("bytes after a repeat Put = %d, a fresh open counts %d", got, want)
	}
}

// TestOrphanSweep plants a staging file that a killed writer would
// leave in the result cache and in the checkpoint store: reopening
// removes both, keeps a live writer's fresh one, and leaves both stores
// working.
func TestOrphanSweep(t *testing.T) {
	cfg := testConfig(t)
	cfg.SnapDir = t.TempDir()
	old := time.Now().Add(-2 * time.Minute)
	plant := func(dir, name string, mtime time.Time) string {
		t.Helper()
		path := filepath.Join(dir, "ab", name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, mtime, mtime); err != nil {
			t.Fatal(err)
		}
		return path
	}
	orphans := []string{
		plant(cfg.CacheDir, "put-1.tmp", old),
		plant(cfg.SnapDir, ".snap-1", old),
	}
	live := plant(cfg.CacheDir, "put-2.tmp", time.Now())

	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range orphans {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("orphan %s survived the reopen (stat: %v)", path, err)
		}
	}
	if _, err := os.Stat(live); err != nil {
		t.Errorf("a live writer's staging file was removed: %v", err)
	}
	if got := s.Cache().Orphans() + s.Snapshots().Orphans(); got != 2 {
		t.Errorf("reopen counted %d orphans, want 2", got)
	}

	key := strings.Repeat("ab", 32)
	if err := s.Cache().Put(fakeEntry(key)); err != nil {
		t.Fatal(err)
	}
	if e, err := s.Cache().Get(key); err != nil || e == nil {
		t.Fatalf("cache Get after the sweep = (%v, %v)", e, err)
	}
	if err := s.Snapshots().Put(key, 100, key, []byte("blob")); err != nil {
		t.Fatal(err)
	}
	if blob, ok := s.Snapshots().Get(key, 100, key); !ok || string(blob) != "blob" {
		t.Fatalf("store Get after the sweep = (%q, %v)", blob, ok)
	}
}
