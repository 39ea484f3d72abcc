package plan

import (
	"os"
	"path/filepath"
	"sync"

	"orion/internal/obs"
)

// Cache is a content-addressed artifact store: an in-memory map backed
// by an optional on-disk directory of <key>.plan.json files. Keys come
// from Key(...) or Fingerprint(...). Hits and misses are counted on the
// obs registry ("plan.cache_hit", "plan.cache_disk_hit",
// "plan.cache_miss") so callers can assert compile-once behavior.
type Cache struct {
	mu  sync.Mutex
	dir string
	mem map[string]*Artifact
}

// NewCache returns a cache persisting to dir; an empty dir keeps the
// cache memory-only.
func NewCache(dir string) *Cache {
	return &Cache{dir: dir, mem: make(map[string]*Artifact)}
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".plan.json")
}

// Get returns the cached artifact for key, consulting memory first and
// then disk, or nil on a miss.
func (c *Cache) Get(key string) *Artifact {
	c.mu.Lock()
	defer c.mu.Unlock()
	if a, ok := c.mem[key]; ok {
		obs.GetCounter("plan.cache_hit").Inc()
		return a
	}
	if c.dir != "" {
		if b, err := os.ReadFile(c.path(key)); err == nil {
			if a, err := Decode(b); err == nil {
				c.mem[key] = a
				obs.GetCounter("plan.cache_hit").Inc()
				obs.GetCounter("plan.cache_disk_hit").Inc()
				return a
			}
			// Corrupt or version-skewed cache entry: treat as a miss;
			// the caller recompiles and Put overwrites it.
		}
	}
	obs.GetCounter("plan.cache_miss").Inc()
	return nil
}

// Put stores the artifact under key, writing through to disk when a
// directory is configured. Disk failures are non-fatal: the cache is an
// accelerator, not a source of truth.
func (c *Cache) Put(key string, a *Artifact) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mem[key] = a
	if c.dir == "" {
		return
	}
	b, err := a.EncodeJSON()
	if err != nil {
		return
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return
	}
	tmp := c.path(key) + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return
	}
	os.Rename(tmp, c.path(key))
}
