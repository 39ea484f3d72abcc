package plan

import (
	"sync"

	"orion/internal/obs"
)

// Cache is a content-addressed, in-memory artifact store. Keys come
// from Key(...) or Fingerprint(...). Hits and misses are counted on the
// obs registry ("plan.cache_hit", "plan.cache_miss") so callers can
// assert compile-once behavior.
type Cache struct {
	mu  sync.Mutex
	mem map[string]*Artifact
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{mem: make(map[string]*Artifact)}
}

// Get returns the cached artifact for key, or nil on a miss.
func (c *Cache) Get(key string) *Artifact {
	c.mu.Lock()
	defer c.mu.Unlock()
	if a, ok := c.mem[key]; ok {
		obs.GetCounter("plan.cache_hit").Inc()
		return a
	}
	obs.GetCounter("plan.cache_miss").Inc()
	return nil
}

// Put stores the artifact under key.
func (c *Cache) Put(key string, a *Artifact) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mem[key] = a
}
