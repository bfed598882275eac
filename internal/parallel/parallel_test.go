package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d", got)
	}
	if got := Workers(7); got != 7 {
		t.Fatalf("Workers(7) = %d", got)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 64} {
		const n = 100
		counts := make([]int32, n)
		ForEach(workers, n, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
	// Degenerate sizes must not hang or panic.
	ForEach(4, 0, func(int) { t.Fatal("fn called for n=0") })
	ForEach(4, -1, func(int) { t.Fatal("fn called for n<0") })
}

// TestForEachWorkerStateExclusive uses per-worker state without
// synchronization, the way campaign.RunPlans keeps one trial machine per
// worker; under -race it fails if two goroutines ever share a worker index.
func TestForEachWorkerStateExclusive(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 64} {
		const n = 1000
		busy := make([]bool, Workers(workers))
		ran := make([]int, Workers(workers))
		ForEachWorker(workers, n, func(w, i int) {
			if busy[w] {
				t.Errorf("workers=%d: worker %d ran two items at once", workers, w)
			}
			busy[w] = true
			ran[w]++
			busy[w] = false
		})
		total := 0
		for _, r := range ran {
			total += r
		}
		if total != n {
			t.Fatalf("workers=%d: ran %d items, want %d", workers, total, n)
		}
	}
}

func TestForEachSerialRunsInOrder(t *testing.T) {
	var order []int
	ForEach(1, 10, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order broken: %v", order)
		}
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	f := func(i int) uint64 { return DeriveSeed(42, uint64(i)) }
	base := Map(1, 200, f)
	for _, workers := range []int{2, 3, 8} {
		got := Map(workers, 200, f)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: slot %d differs", workers, i)
			}
		}
	}
}

func TestDeriveSeedDistinctStreams(t *testing.T) {
	seen := map[uint64][]uint64{}
	record := func(s uint64, coords ...uint64) {
		if prev, ok := seen[s]; ok {
			t.Fatalf("seed collision: %v and %v -> %d", prev, coords, s)
		}
		seen[s] = append([]uint64(nil), coords...)
	}
	for i := uint64(0); i < 1000; i++ {
		record(DeriveSeed(7, i), i)
	}
	for g := uint64(0); g < 30; g++ {
		for c := uint64(0); c < 30; c++ {
			record(DeriveSeed(7, g, c), g, c)
		}
	}
}

// TestDeriveRNGPrivateStreams is the shared-RNG tripwire: every worker
// draws heavily from its own derived stream. If a future change made these
// streams share state, `go test -race` would flag the concurrent mutation
// of the RNG — exactly the hazard class the concurrent campaign, search and
// suite paths must never reintroduce.
func TestDeriveRNGPrivateStreams(t *testing.T) {
	const n = 64
	sums := make([]uint64, n)
	ForEach(8, n, func(i int) {
		rng := DeriveRNG(99, uint64(i))
		var s uint64
		for k := 0; k < 10000; k++ {
			s += rng.Uint64()
		}
		sums[i] = s
	})
	ref := make([]uint64, n)
	ForEach(1, n, func(i int) {
		rng := DeriveRNG(99, uint64(i))
		var s uint64
		for k := 0; k < 10000; k++ {
			s += rng.Uint64()
		}
		ref[i] = s
	})
	for i := range sums {
		if sums[i] != ref[i] {
			t.Fatalf("stream %d not schedule-independent", i)
		}
	}
}

func TestMemoComputesOnce(t *testing.T) {
	var m Memo[int]
	var calls int32
	results := make([]int, 50)
	ForEach(8, 50, func(i int) {
		v, err := m.Get("shared", func() (int, error) {
			atomic.AddInt32(&calls, 1)
			return 1234, nil
		})
		if err != nil {
			t.Error(err)
		}
		results[i] = v
	})
	if calls != 1 {
		t.Fatalf("compute ran %d times", calls)
	}
	for _, v := range results {
		if v != 1234 {
			t.Fatalf("stale result %d", v)
		}
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestMemoCachesErrors(t *testing.T) {
	var m Memo[int]
	var calls int
	boom := fmt.Errorf("boom")
	for i := 0; i < 3; i++ {
		if _, err := m.Get("bad", func() (int, error) {
			calls++
			return 0, boom
		}); err != boom {
			t.Fatalf("err = %v", err)
		}
	}
	if calls != 1 {
		t.Fatalf("failed compute retried %d times", calls)
	}
}

func TestMemoStats(t *testing.T) {
	var m Memo[int]
	compute := func() (int, error) { return 1, nil }
	m.Get("a", compute)
	m.Get("a", compute)
	m.Get("b", compute)
	m.Get("a", compute)
	got := m.Stats()
	if got.Misses != 2 || got.Hits != 2 {
		t.Fatalf("stats = %+v, want 2 hits / 2 misses", got)
	}
}

// Miss count equals the number of distinct keys even under concurrent Gets
// for the same key — exactly one caller creates each entry.
func TestMemoStatsConcurrent(t *testing.T) {
	var m Memo[int]
	ForEach(8, 64, func(i int) {
		m.Get(fmt.Sprintf("k%d", i%4), func() (int, error) { return i, nil })
	})
	got := m.Stats()
	if got.Misses != 4 || got.Hits != 60 {
		t.Fatalf("stats = %+v, want 60 hits / 4 misses", got)
	}
}

func TestObserverReportsDrains(t *testing.T) {
	defer SetObserver(nil)
	var (
		mu      sync.Mutex
		batches int
		items   int
		workers []int
	)
	SetObserver(func(w, n int, tasks []int, elapsed time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		batches++
		items += n
		workers = append(workers, w)
		sum := 0
		for _, c := range tasks {
			sum += c
		}
		if sum != n {
			t.Errorf("per-worker tasks sum to %d, want %d", sum, n)
		}
		if len(tasks) != w {
			t.Errorf("got %d worker slots for %d workers", len(tasks), w)
		}
		if elapsed < 0 {
			t.Error("negative drain time")
		}
	})
	ForEach(1, 5, func(i int) {})
	ForEach(4, 10, func(i int) {})
	mu.Lock()
	defer mu.Unlock()
	if batches != 2 || items != 15 {
		t.Fatalf("batches=%d items=%d", batches, items)
	}
	if workers[0] != 1 || workers[1] != 4 {
		t.Fatalf("worker counts = %v", workers)
	}
}

// The observer must not change results: the same Map output with and
// without observation.
func TestObserverDoesNotPerturbResults(t *testing.T) {
	defer SetObserver(nil)
	base := Map(4, 100, func(i int) int { return i * i })
	SetObserver(func(int, int, []int, time.Duration) {})
	observed := Map(4, 100, func(i int) int { return i * i })
	for i := range base {
		if base[i] != observed[i] {
			t.Fatalf("result differs at %d", i)
		}
	}
}

// A capped memo evicts the least-recently-requested key, counts the
// eviction, and recomputes the evicted key on its next request.
func TestMemoCapEvictsLeastRecentlyRequested(t *testing.T) {
	var m Memo[string]
	m.SetCap(2)
	get := func(k string) {
		t.Helper()
		v, err := m.Get(k, func() (string, error) { return "v" + k, nil })
		if err != nil || v != "v"+k {
			t.Fatalf("Get(%q) = %q, %v", k, v, err)
		}
	}
	get("a")
	get("b")
	get("a") // refresh a: b is now least recent
	get("c") // evicts b
	if got := m.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	st := m.Stats()
	if st.Evictions != 1 || st.Len != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, len 2", st)
	}
	// b was evicted, so requesting it recomputes (a miss); a and c are hits.
	before := m.Stats().Misses
	get("b")
	if after := m.Stats().Misses; after != before+1 {
		t.Fatalf("evicted key did not recompute: misses %d -> %d", before, after)
	}
}

// Shrinking the cap below the current size evicts immediately and
// deterministically (oldest request first).
func TestMemoSetCapShrinks(t *testing.T) {
	var m Memo[int]
	for i := 0; i < 5; i++ {
		k := string(rune('a' + i))
		if _, err := m.Get(k, func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	m.SetCap(2)
	if got := m.Len(); got != 2 {
		t.Fatalf("Len after shrink = %d, want 2", got)
	}
	st := m.Stats()
	if st.Evictions != 3 {
		t.Fatalf("Evictions = %d, want 3", st.Evictions)
	}
	// The two most recently requested keys survive.
	for _, k := range []string{"d", "e"} {
		before := m.Stats().Hits
		if _, err := m.Get(k, func() (int, error) { return -1, nil }); err != nil {
			t.Fatal(err)
		}
		if m.Stats().Hits != before+1 {
			t.Fatalf("key %q did not survive the shrink", k)
		}
	}
}

// Delete invalidates a key without counting an eviction.
func TestMemoDelete(t *testing.T) {
	var m Memo[int]
	calls := 0
	compute := func() (int, error) { calls++; return calls, nil }
	v, _ := m.Get("k", compute)
	if v != 1 {
		t.Fatalf("first Get = %d", v)
	}
	if !m.Delete("k") {
		t.Fatal("Delete existing key reported false")
	}
	if m.Delete("k") {
		t.Fatal("Delete missing key reported true")
	}
	v, _ = m.Get("k", compute)
	if v != 2 {
		t.Fatalf("Get after Delete = %d, want recompute (2)", v)
	}
	st := m.Stats()
	if st.Evictions != 0 {
		t.Fatalf("Delete counted as eviction: %+v", st)
	}
	if st.Misses != 2 || st.Len != 1 {
		t.Fatalf("stats after delete/reinsert = %+v", st)
	}
}

// Eviction totals depend only on the request sequence, not on worker
// interleaving of unrelated keys' computes.
func TestMemoCapConcurrentComputes(t *testing.T) {
	var m Memo[int]
	m.SetCap(4)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := string(rune('a' + i%8))
			_, _ = m.Get(k, func() (int, error) { return i, nil })
		}(i)
	}
	wg.Wait()
	st := m.Stats()
	if st.Len > 4 {
		t.Fatalf("cap violated: %+v", st)
	}
	if st.Hits+st.Misses != 32 {
		t.Fatalf("request tally lost: %+v", st)
	}
}
