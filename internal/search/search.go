// Package search is the deterministic parallel search backbone shared
// by the floorplanner's GA/SA and the co-synthesis architecture loops.
//
// The contract every user of this package follows is *generate
// serially, evaluate concurrently, merge in submission order*: all
// randomness (candidate genomes, acceptance uniforms, neighborhood
// enumeration) is drawn on the caller's goroutine before any evaluation
// starts, evaluations are pure functions of their candidate, and
// results land in submission-indexed slots. Under that contract the
// outcome of a search is byte-identical for every parallelism level,
// including fully serial execution.
package search

import (
	"container/list"
	"sync"
)

// Pool is a bounded token pool for concurrent candidate evaluation. A
// nil *Pool runs everything inline on the caller's goroutine (the
// serial path — byte-identical results, no goroutines). Pools are
// shared down the stack (engine → co-synthesis → floorplan GA) so
// nested fan-outs never oversubscribe: acquisition is non-blocking and
// a job that finds the pool saturated simply runs inline, which also
// makes nested Map calls deadlock-free by construction.
type Pool struct {
	tokens chan struct{}
}

// NewPool sizes a pool for the given total parallelism: one slot is
// the caller's own goroutine, so the pool holds parallelism-1 tokens.
// Parallelism ≤ 1 returns nil — the serial pool.
func NewPool(parallelism int) *Pool {
	if parallelism <= 1 {
		return nil
	}
	return &Pool{tokens: make(chan struct{}, parallelism-1)}
}

// Parallel reports whether the pool can run jobs concurrently.
func (p *Pool) Parallel() bool { return p != nil }

// Saturated reports whether every token is currently held, i.e. a Map
// call issued now would run entirely inline. The answer is a racy
// snapshot — tokens come and go concurrently — so callers may use it
// only as a scheduling hint (e.g. to prefer an early-exit serial scan
// over speculative fan-out), never for correctness.
func (p *Pool) Saturated() bool {
	return p == nil || len(p.tokens) == cap(p.tokens)
}

// Map runs fn(0), …, fn(n-1), spreading jobs across the pool's tokens
// plus the caller's goroutine. fn must write its result into a
// submission-indexed slot; when the pool is parallel fn must be safe
// for concurrent invocation. Map returns the lowest-index error —
// serial and parallel runs therefore report the same error, regardless
// of scheduling (the serial path stops at the first failure, the
// parallel path finishes in-flight jobs first).
func (p *Pool) Map(n int, fn func(i int) error) error {
	if p == nil {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		select {
		case p.tokens <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-p.tokens }()
				errs[i] = fn(i)
			}(i)
		default:
			errs[i] = fn(i)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// LRU is a mutex-guarded least-recently-used cache from string keys to
// values, with hit/miss counters — the memo behind the floorplanner's
// expression-fingerprint cache and the root Engine's model, scenario
// and stream caches. It is safe for concurrent use; for deterministic
// eviction (and so deterministic hit/miss accounting across
// parallelism levels), do the Get/Put calls of one search serially.
type LRU[V any] struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List // front = most recently used
	byKey  map[string]*list.Element
	hits   uint64
	misses uint64
}

type lruEntry[V any] struct {
	key string
	val V
}

// NewLRU builds a cache bounded to capacity entries; capacity ≤ 0
// disables caching (every Get misses, Put is a no-op).
func NewLRU[V any](capacity int) *LRU[V] {
	return &LRU[V]{
		cap:   capacity,
		ll:    list.New(),
		byKey: make(map[string]*list.Element),
	}
}

// Get returns the cached value for key, marking it most recently used.
func (c *LRU[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// Put inserts or refreshes a key, evicting the least recently used
// entry when the cache is over capacity.
func (c *LRU[V]) Put(key string, v V) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry[V]).val = v
		return
	}
	c.byKey[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: v})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*lruEntry[V]).key)
	}
}

// Stats reports the cache's hit/miss counters and current size.
func (c *LRU[V]) Stats() (hits, misses uint64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.ll.Len()
}

// Cap returns the cache's configured capacity (≤ 0 means disabled).
func (c *LRU[V]) Cap() int { return c.cap }
