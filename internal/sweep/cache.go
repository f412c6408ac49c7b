package sweep

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Cache stores encoded job results under their spec hash. Implementations
// must be safe for concurrent use by the engine's workers. Put is
// best-effort: the engine ignores persistence failures (the result is still
// returned to the caller).
type Cache interface {
	Get(key string) ([]byte, bool)
	Put(key string, val []byte) error
}

// MemoryCache is an in-process result cache. It makes repeated sweeps in
// one run (e.g. the same precise baseline appearing in several studies)
// free, and backs the read path of the disk cache. It is unbounded: a
// single run's working set is the right lifetime.
type MemoryCache struct {
	mu sync.Mutex
	m  map[string][]byte
}

// NewMemoryCache returns an empty in-memory cache.
func NewMemoryCache() *MemoryCache { return &MemoryCache{m: make(map[string][]byte)} }

// Get returns the cached bytes for key.
func (c *MemoryCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	return v, ok
}

// Put stores val under key. The caller must not mutate val afterwards.
func (c *MemoryCache) Put(key string, val []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = val
	return nil
}

// Len reports the number of cached entries.
func (c *MemoryCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// DiskCache persists results as one JSON file per spec hash in a directory,
// with an in-memory layer in front, so a second wnbench run against the same
// -cache directory skips every already-simulated cell.
type DiskCache struct {
	dir string
	mem *MemoryCache
	seq atomic.Int64 // unique temp-file suffix for atomic writes
}

// NewDiskCache opens (creating if needed) a cache directory.
func NewDiskCache(dir string) (*DiskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: cache dir: %w", err)
	}
	return &DiskCache{dir: dir, mem: NewMemoryCache()}, nil
}

// validCacheKey reports whether key has the shape of a spec hash (lowercase
// hex SHA-256), guarding the filesystem against arbitrary keys.
func validCacheKey(key string) bool {
	if len(key) != 2*32 {
		return false
	}
	for _, r := range key {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}

func (c *DiskCache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Get returns the cached bytes for key, reading through to disk.
func (c *DiskCache) Get(key string) ([]byte, bool) {
	if v, ok := c.mem.Get(key); ok {
		return v, true
	}
	if !validCacheKey(key) {
		return nil, false
	}
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	c.mem.Put(key, b)
	return b, true
}

// Put stores val under key in memory and on disk (atomically, via a
// temp-file rename, so a crashed run never leaves a torn entry).
func (c *DiskCache) Put(key string, val []byte) error {
	c.mem.Put(key, val)
	if !validCacheKey(key) {
		return fmt.Errorf("sweep: invalid cache key %q", key)
	}
	tmp := filepath.Join(c.dir, fmt.Sprintf(".tmp-%d-%d", os.Getpid(), c.seq.Add(1)))
	if err := os.WriteFile(tmp, val, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, c.path(key)); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
