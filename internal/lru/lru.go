// Package lru provides the small bounded LRU cache backing the eval cache
// of a Z[x]/(r(x)) server store (and the coalescer's). It favors
// predictable memory over hit-rate sophistication: a plain mutex-guarded
// map plus intrusive doubly-linked recency list, evicting the least
// recently used entry at capacity.
//
// A nil *Cache is valid and behaves as a disabled cache (every Get
// misses, Add is a no-op), so callers can turn caching off by
// constructing with capacity <= 0 without branching at each use.
package lru

import "sync"

// Cache is a bounded LRU map. Safe for concurrent use. The zero value is
// not usable; construct with New.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	m     map[K]*entry[K, V]
	front *entry[K, V] // most recently used
	back  *entry[K, V] // least recently used
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V]
}

// New builds a cache holding at most capacity entries. A capacity <= 0
// returns nil: a valid, permanently empty cache.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity <= 0 {
		return nil
	}
	return &Cache[K, V]{cap: capacity, m: make(map[K]*entry[K, V], capacity)}
}

// Get returns the cached value and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[k]
	if !ok {
		return zero, false
	}
	c.moveFront(e)
	return e.val, true
}

// Add inserts or refreshes a key, evicting the least recently used entry
// when the cache is full.
func (c *Cache[K, V]) Add(k K, v V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[k]; ok {
		e.val = v
		c.moveFront(e)
		return
	}
	if len(c.m) >= c.cap {
		lru := c.back
		c.unlink(lru)
		delete(c.m, lru.key)
	}
	e := &entry[K, V]{key: k, val: v}
	c.m[k] = e
	c.pushFront(e)
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Cap returns the capacity (0 for a disabled cache).
func (c *Cache[K, V]) Cap() int {
	if c == nil {
		return 0
	}
	return c.cap
}

func (c *Cache[K, V]) moveFront(e *entry[K, V]) {
	if c.front == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev = nil
	e.next = c.front
	if c.front != nil {
		c.front.prev = e
	}
	c.front = e
	if c.back == nil {
		c.back = e
	}
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.back = e.prev
	}
	e.prev, e.next = nil, nil
}
