package pcn

import (
	"sync"
	"sync/atomic"

	"github.com/splicer-pcn/splicer/internal/graph"
	"github.com/splicer-pcn/splicer/internal/routing"
)

// ComposedRoutes is the RouteKey.Type for policy-composed path sets — hub
// concatenations (Splicer access+transit+access, A2L tumbler detours) and
// landmark routes — that do not correspond to a plain routing.PathType
// computation. A network runs exactly one policy, so composed sets from
// different schemes can never collide.
const ComposedRoutes routing.PathType = 0

// RouteKey identifies one route computation: a source/destination pair, the
// path-selection strategy, and the requested path count. Distinct strategies
// or k values for the same pair cache independently (e.g. Flash's k=3 KSP
// mice paths never collide with another KSP query for the same pair).
type RouteKey struct {
	Src, Dst graph.NodeID
	Type     routing.PathType
	K        int
}

// routeCacheShards is the shard count (power of two so the key hash maps
// with a mask). 32 shards keep contention negligible for the serving pool's
// worker counts while costing ~2KB of mutexes per cache.
const routeCacheShards = 32

// routeCacheShard is one lock-striped slice of the key space.
type routeCacheShard struct {
	mu      sync.RWMutex
	entries map[RouteKey][]graph.Path
}

// RouteCache is the network-wide path cache shared by every SchemePolicy.
// Route computation dominates the simulator's hot path (Dijkstra/Yen per
// sender-recipient pair), so policies funnel every path set — raw
// SelectPathsWith results, composed hub routes, mice paths — through this
// cache instead of keeping ad-hoc per-policy maps.
//
// Invalidation contract: any mutation of the routed topology — adding
// channels (ReshapeMultiStar), rescaling channel funds (CapitalizeHubs), or
// any future graph surgery — must call Invalidate (policies go through
// Network.InvalidateRoutes). Policies must re-fetch path sets through
// Get/GetOrCompute after such a mutation rather than holding references
// across it; the generation counter exists so long-lived holders can detect
// staleness cheaply.
//
// The cache is sharded by key hash with per-shard read/write locks and
// atomic counters, so any number of concurrent readers (the serving pool's
// workers) can hit it while a writer invalidates. Cached path sets are
// immutable by contract: a Path obtained from the cache must never be
// mutated in place (policies compose by copying). GetOrCompute runs compute
// outside the shard lock — two workers racing on the same cold key may both
// compute, last write wins; both results are correct for the generation
// they were computed in, and a duplicate Dijkstra beats holding a lock
// across one. The single-threaded batch simulator observes exactly the
// pre-sharding semantics (same hits/misses/generation arithmetic).
type RouteCache struct {
	shards [routeCacheShards]routeCacheShard
	gen    atomic.Uint64
	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewRouteCache returns an empty cache.
func NewRouteCache() *RouteCache {
	c := &RouteCache{}
	for i := range c.shards {
		c.shards[i].entries = map[RouteKey][]graph.Path{}
	}
	return c
}

// shard maps a key to its shard by mixing the key fields (fibonacci-style
// multiplicative hashing; src/dst dominate, type/k disambiguate).
func (c *RouteCache) shard(key RouteKey) *routeCacheShard {
	h := uint64(key.Src)*0x9e3779b97f4a7c15 ^
		uint64(key.Dst)*0xc2b2ae3d27d4eb4f ^
		uint64(key.Type)<<32 ^ uint64(uint32(key.K))
	h ^= h >> 29
	return &c.shards[h&(routeCacheShards-1)]
}

// Get returns the cached path set for key. A present-but-empty entry records
// the pair as unroutable; ok distinguishes that from a miss.
func (c *RouteCache) Get(key RouteKey) ([]graph.Path, bool) {
	s := c.shard(key)
	s.mu.RLock()
	paths, ok := s.entries[key]
	s.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return paths, ok
}

// Peek returns the cached path set for key without touching the hit/miss
// counters. Speculative planning workers use it to read the live cache as
// warm-up input: the counters must record only the serial committer's
// arithmetic so a parallel run reports byte-identical cache statistics.
func (c *RouteCache) Peek(key RouteKey) ([]graph.Path, bool) {
	s := c.shard(key)
	s.mu.RLock()
	paths, ok := s.entries[key]
	s.mu.RUnlock()
	return paths, ok
}

// Put stores a path set. Storing nil/empty records the pair as unroutable so
// repeat payments skip the (futile) computation.
func (c *RouteCache) Put(key RouteKey, paths []graph.Path) {
	s := c.shard(key)
	s.mu.Lock()
	s.entries[key] = paths
	s.mu.Unlock()
}

// GetOrCompute returns the cached path set for key, running compute and
// caching its result (including a nil "unroutable" result) on a miss.
// Compute errors are returned uncached. Compute runs outside the shard
// lock; concurrent misses on the same key may compute twice (see the type
// comment), never deadlock, and nested GetOrCompute calls (Splicer's
// composed routes computing transit legs inside the outer compute) remain
// legal under concurrency.
func (c *RouteCache) GetOrCompute(key RouteKey, compute func() ([]graph.Path, error)) ([]graph.Path, error) {
	s := c.shard(key)
	s.mu.RLock()
	paths, ok := s.entries[key]
	s.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return paths, nil
	}
	c.misses.Add(1)
	paths, err := compute()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.entries[key] = paths
	s.mu.Unlock()
	return paths, nil
}

// Invalidate evicts every cached path set and bumps the generation. Called
// whenever the routed topology changes.
func (c *RouteCache) Invalidate() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		clear(s.entries)
		s.mu.Unlock()
	}
	c.gen.Add(1)
}

// Len returns the number of cached path sets.
func (c *RouteCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.entries)
		s.mu.RUnlock()
	}
	return n
}

// Generation counts invalidations; holders of path sets can compare
// generations instead of re-fetching to detect topology changes.
func (c *RouteCache) Generation() uint64 { return c.gen.Load() }

// Hits returns the number of cache hits (Get and GetOrCompute).
func (c *RouteCache) Hits() uint64 { return c.hits.Load() }

// Misses returns the number of cache misses.
func (c *RouteCache) Misses() uint64 { return c.misses.Load() }
