// Package parallel is the repository's deterministic execution layer: a
// worker-pool primitive shared by the FI campaign runner, the GA search,
// the baseline and the experiment suite.
//
// The paper notes (§5.2) that PEPPA-X and the random-FI baseline both
// parallelize trivially because FI trials and candidate evaluations are
// independent. The contract that keeps parallel runs statistically — and in
// this repository bit-for-bit — identical to serial ones is:
//
//  1. Work items are addressed by index, and each item's randomness is a
//     private stream derived from (seed, index) via DeriveSeed, never a
//     stream shared across goroutines.
//  2. Each item writes only to its own result slot; aggregation happens
//     after the pool drains, in index order.
//
// Under that contract ForEach and Map produce the same results for any
// worker count, including the serial Workers=1 schedule.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/xrand"
)

// golden is the splitmix64 increment, the same constant xrand's core uses.
const golden = 0x9E3779B97F4A7C15

// Workers resolves a worker-count knob: values <= 0 mean GOMAXPROCS.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Observer receives one report per drained ForEach batch: the resolved
// worker count, the item count, how many tasks each worker pulled off the
// shared cursor, and the wall-clock drain time. Everything it sees is
// schedule-dependent, so observers must feed metrics (telemetry counters),
// never the deterministic trace. Reports may arrive concurrently from
// independent batches; observers must be safe for concurrent calls.
type Observer func(workers, items int, tasksPerWorker []int, elapsed time.Duration)

// observer is the process-wide pool observer (nil = disabled). Stored as a
// pointer so the atomic load in ForEach stays a single cheap instruction.
var observer atomic.Pointer[Observer]

// SetObserver installs (or, with nil, removes) the pool utilization
// observer. Intended for the cmd binaries' -metrics wiring; the zero state
// costs one atomic load per ForEach call.
func SetObserver(o Observer) {
	if o == nil {
		observer.Store(nil)
		return
	}
	observer.Store(&o)
}

// ForEach runs fn(i) for every i in [0, n) across Workers(workers)
// goroutines. With one worker (or one item) it degenerates to a plain
// serial loop in index order, without spawning goroutines. Work is
// distributed by an atomic cursor, so scheduling is dynamic; determinism is
// fn's responsibility per the package contract.
func ForEach(workers, n int, fn func(i int)) {
	ForEachWorker(workers, n, func(_, i int) { fn(i) })
}

// ForEachWorker is ForEach that also passes fn the index, in
// [0, Workers(workers)), of the worker running item i. One worker runs its
// items one at a time, so fn may reuse per-worker state indexed by it.
func ForEachWorker(workers, n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	var (
		obs   Observer
		start time.Time
	)
	if p := observer.Load(); p != nil {
		obs = *p
		start = time.Now()
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		if obs != nil {
			obs(1, n, []int{n}, time.Since(start))
		}
		return
	}
	var (
		next  int64
		wg    sync.WaitGroup
		tasks []int
	)
	if obs != nil {
		tasks = make([]int, w)
	}
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(k int) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				fn(k, i)
				if tasks != nil {
					tasks[k]++
				}
			}
		}(k)
	}
	wg.Wait()
	if obs != nil {
		obs(w, n, tasks, time.Since(start))
	}
}

// Map evaluates fn over [0, n) with ForEach and returns the results in
// index order.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(workers, n, func(i int) {
		out[i] = fn(i)
	})
	return out
}

// mix64 is the splitmix64 finalizer — a bijective 64-bit hash.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// DeriveSeed mixes a base seed with index coordinates — e.g. (generation,
// candidate) or a trial number — into the seed of an independent stream.
// Each coordinate is folded in with a golden-ratio multiply and a splitmix64
// finalizer, so nearby coordinates yield uncorrelated streams and different
// coordinate arities do not collide in practice.
func DeriveSeed(seed uint64, coords ...uint64) uint64 {
	h := seed
	for _, c := range coords {
		h ^= (c + 1) * golden
		h = mix64(h)
	}
	return h
}

// DeriveRNG returns a fresh RNG on the stream DeriveSeed selects. The
// caller owns it exclusively; handing each work item its own derived RNG is
// what makes results independent of scheduling and worker count.
func DeriveRNG(seed uint64, coords ...uint64) *xrand.RNG {
	return xrand.New(DeriveSeed(seed, coords...))
}

// Memo is a concurrency-safe compute-once-per-key cache, the sync.Once-per-
// key pattern. Concurrent Get calls for the same key block until the single
// compute finishes and then share its result (including its error). The
// zero value is ready to use and unbounded; SetCap bounds it for
// long-running servers.
type Memo[V any] struct {
	mu        sync.Mutex
	m         map[string]*memoEntry[V]
	cap       int
	seq       int64
	hits      int64
	misses    int64
	evictions int64
}

// MemoStats reports a memo's request tallies: a miss is the Get that
// created a key's entry (exactly one per key, whichever caller wins the
// race), a hit any later Get for it. Evictions counts entries dropped to
// honor SetCap, and Len is the current entry count. For a fixed request
// sequence all four depend only on that sequence — eviction order is by
// request recency, which the sequence determines — not on scheduling, so
// they are safe for deterministic traces.
type MemoStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Len       int
}

type memoEntry[V any] struct {
	once sync.Once
	val  V
	err  error
	// use is the memo-wide sequence number of the entry's most recent Get,
	// guarded by Memo.mu. Strictly increasing, so least-recently-requested
	// is unique and eviction order is deterministic.
	use int64
}

// Get returns the cached value for key, computing it with compute exactly
// once across all callers. When a cap is set, inserting a new key evicts
// least-recently-requested entries first; callers already blocked on an
// evicted entry still complete and share its result.
func (c *Memo[V]) Get(key string, compute func() (V, error)) (V, error) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[string]*memoEntry[V])
	}
	e, ok := c.m[key]
	if !ok {
		e = &memoEntry[V]{}
		c.m[key] = e
		c.misses++
	} else {
		c.hits++
	}
	c.seq++
	e.use = c.seq
	if !ok {
		c.evictLocked()
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.val, e.err = compute()
	})
	return e.val, e.err
}

// SetCap bounds the memo to at most n entries (n <= 0 removes the bound).
// Shrinking below the current size evicts least-recently-requested entries
// immediately.
func (c *Memo[V]) SetCap(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 0 {
		n = 0
	}
	c.cap = n
	c.evictLocked()
}

// Delete removes key so the next Get recomputes it, reporting whether an
// entry existed. Deletion is not an eviction: it is the caller invalidating
// a stale value, so it leaves the eviction tally untouched.
func (c *Memo[V]) Delete(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.m[key]
	delete(c.m, key)
	return ok
}

// evictLocked drops least-recently-requested entries until the cap holds.
// Caller holds c.mu. The scan is O(len) per eviction, which is fine at the
// small caps profile caches use.
func (c *Memo[V]) evictLocked() {
	if c.cap <= 0 {
		return
	}
	for len(c.m) > c.cap {
		var (
			oldestKey string
			oldestUse int64
			found     bool
		)
		for k, e := range c.m {
			if !found || e.use < oldestUse {
				oldestKey, oldestUse, found = k, e.use, true
			}
		}
		delete(c.m, oldestKey)
		c.evictions++
	}
}

// Len reports how many entries the memo currently holds.
func (c *Memo[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats returns the memo's hit/miss/eviction tallies and current size.
func (c *Memo[V]) Stats() MemoStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return MemoStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Len: len(c.m)}
}
