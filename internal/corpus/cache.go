package corpus

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// Key identifies one cached value: the corpus content fingerprint, the
// measure (or grid) identity, and a free-form parameter band describing
// what was computed (e.g. "snapshot", "tuned/stride=4"). Two corpora with
// different content hash to different fingerprints, so same-shape datasets
// never alias.
type Key struct {
	FP      Fingerprint
	Measure string
	Band    string
}

// CacheStats counts cache activity since construction.
type CacheStats struct {
	Hits      int64 // GetOrBuildCtx calls served from the cache
	Misses    int64 // lookups that found nothing
	Evictions int64 // entries dropped by the size bound
	Builds    int64 // successful GetOrBuildCtx builder runs
}

// Cache is a size-bounded LRU for snapshots and derived results (tuned
// parameters, index structures) keyed by corpus content. It is safe for
// concurrent use, and GetOrBuildCtx deduplicates concurrent builds of the
// same key so a thundering herd prepares a corpus once.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[Key]*list.Element
	inflight map[Key]*inflightBuild
	stats    CacheStats
}

// cacheEntry is one resident value; list elements hold *cacheEntry.
type cacheEntry struct {
	key Key
	val any
}

// inflightBuild tracks one in-progress GetOrBuildCtx build; waiters block
// on done and then read val/err.
type inflightBuild struct {
	done chan struct{}
	val  any
	err  error
}

// errBuildPanicked is what waiters receive when the build they wait on
// panicked; the panic itself continues on the winner's goroutine.
var errBuildPanicked = errors.New("corpus: cache build panicked")

// NewCache returns a cache holding at most capacity entries (minimum 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    map[Key]*list.Element{},
		inflight: map[Key]*inflightBuild{},
	}
}

// put inserts (or refreshes) k with c.mu held, evicting the least recently
// used entries beyond the capacity.
func (c *Cache) put(k Key, v any) {
	if el, ok := c.items[k]; ok {
		el.Value.(*cacheEntry).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&cacheEntry{key: k, val: v})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.stats.Evictions++
	}
}

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// GetOrBuildCtx returns the cached value for k, or runs build to produce
// it. Concurrent calls for the same key share one build: losers block
// until the winner finishes (or ctx is cancelled) and receive its value.
// Build errors propagate to every waiter and are NOT cached — the next
// call retries — except a context error, which belongs to the winner's
// ctx: a waiter whose own ctx is live retries instead, building or joining
// the next build. A panicking build releases k, fails its waiters, and
// panics on the winner's goroutine. A built value enters as the most
// recently used entry, evicting the least recently used ones beyond the
// capacity.
func (c *Cache) GetOrBuildCtx(ctx context.Context, k Key, build func(ctx context.Context) (any, error)) (any, error) {
	for {
		c.mu.Lock()
		if el, ok := c.items[k]; ok {
			c.ll.MoveToFront(el)
			c.stats.Hits++
			v := el.Value.(*cacheEntry).val
			c.mu.Unlock()
			return v, nil
		}
		fl, ok := c.inflight[k]
		if !ok {
			break
		}
		c.mu.Unlock()
		select {
		case <-fl.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if fl.err == nil {
			// The winner cached the value, but it may already have been
			// evicted under churn; returning its result directly keeps the
			// contract either way.
			return fl.val, nil
		}
		if !errors.Is(fl.err, context.Canceled) && !errors.Is(fl.err, context.DeadlineExceeded) {
			return nil, fl.err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	// err keeps errBuildPanicked unless build returns.
	fl := &inflightBuild{done: make(chan struct{}), err: errBuildPanicked}
	c.inflight[k] = fl
	c.stats.Misses++
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.inflight, k)
		if fl.err == nil {
			c.stats.Builds++
			c.put(k, fl.val)
		}
		c.mu.Unlock()
		close(fl.done)
	}()
	fl.val, fl.err = build(ctx)
	return fl.val, fl.err
}
