package parallel

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 4, 100} {
		const n = 257
		var hits [n]int32
		ForEach(n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestForEachSequentialOrder(t *testing.T) {
	// workers <= 1 must be a plain in-order loop on the caller's goroutine.
	var order []int
	ForEach(5, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential ForEach visited %v", order)
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var active, peak int32
	ForEach(64, workers, func(int) {
		a := atomic.AddInt32(&active, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if a <= p || atomic.CompareAndSwapInt32(&peak, p, a) {
				break
			}
		}
		atomic.AddInt32(&active, -1)
	})
	if p := atomic.LoadInt32(&peak); p > workers {
		t.Fatalf("observed %d concurrent calls, limit %d", p, workers)
	}
}

func TestForEachZeroItems(t *testing.T) {
	called := false
	ForEach(0, 4, func(int) { called = true })
	if called {
		t.Fatal("fn called with n=0")
	}
}

func TestWorkers(t *testing.T) {
	cases := []struct{ n, workers, want int }{
		{10, 0, 1},
		{10, -3, 1},
		{10, 1, 1},
		{10, 4, 4},
		{3, 8, 3},
		{0, 8, 1},
	}
	for _, c := range cases {
		if got := Workers(c.n, c.workers); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
}

func TestForEachWorkerCoversAllIndices(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 4, 100} {
		const n = 257
		var hits [n]int32
		maxWorker := int32(-1)
		ForEachWorker(n, workers, func(w, i int) {
			atomic.AddInt32(&hits[i], 1)
			for {
				m := atomic.LoadInt32(&maxWorker)
				if int32(w) <= m || atomic.CompareAndSwapInt32(&maxWorker, m, int32(w)) {
					break
				}
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
		if limit := int32(Workers(n, workers)); atomic.LoadInt32(&maxWorker) >= limit {
			t.Fatalf("workers=%d: worker id %d out of range [0,%d)", workers, maxWorker, limit)
		}
	}
}

func TestForEachWorkerSequential(t *testing.T) {
	// workers <= 1 runs in order on the caller's goroutine with worker id 0.
	var order []int
	ForEachWorker(5, 1, func(w, i int) {
		if w != 0 {
			t.Fatalf("sequential worker id %d", w)
		}
		order = append(order, i)
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential ForEachWorker visited %v", order)
		}
	}
}

func TestForEachWorkerExclusiveIDs(t *testing.T) {
	// No two concurrent calls may share a worker id: worker-pinned scratch
	// relies on it. Flag any overlap with a per-worker busy bit.
	const workers = 4
	busy := make([]int32, workers)
	ForEachWorker(200, workers, func(w, _ int) {
		if !atomic.CompareAndSwapInt32(&busy[w], 0, 1) {
			t.Errorf("worker id %d used concurrently", w)
		}
		atomic.StoreInt32(&busy[w], 0)
	})
}

func TestForEachBarrierAllInFlight(t *testing.T) {
	// workers == n with every item waiting until all n are in flight: the
	// sharded driver's one-goroutine-per-grant round has this shape, and it
	// completes only if each item gets a worker of its own.
	for _, n := range []int{2, 3, 8} {
		var arrived sync.WaitGroup
		arrived.Add(n)
		ForEach(n, n, func(int) {
			arrived.Done()
			arrived.Wait()
		})
	}
}

func TestForEachNested(t *testing.T) {
	// Source polls fan out, and each poll fans its fetches out again.
	const outer, inner = 5, 37
	var hits [outer][inner]int32
	ForEach(outer, 3, func(i int) {
		ForEachWorker(inner, 4, func(_, j int) { atomic.AddInt32(&hits[i][j], 1) })
	})
	for i := range hits {
		for j, h := range hits[i] {
			if h != 1 {
				t.Fatalf("item (%d,%d) visited %d times", i, j, h)
			}
		}
	}
}

func TestForEachSmallNSpawnsNothing(t *testing.T) {
	// n <= 1 runs on the caller: no goroutine is started, even with many
	// workers requested.
	for _, n := range []int{0, 1} {
		before := runtime.NumGoroutine()
		ForEachWorker(n, 8, func(w, _ int) {
			if w != 0 {
				t.Fatalf("n=%d: worker id %d", n, w)
			}
			// Goroutines of earlier tests may still be exiting, so only
			// growth counts.
			if g := runtime.NumGoroutine(); g > before {
				t.Fatalf("n=%d: %d goroutines inside fn, %d before", n, g, before)
			}
		})
	}
	if allocs := testing.AllocsPerRun(100, func() { ForEachWorker(1, 8, func(int, int) {}) }); allocs != 0 {
		t.Fatalf("ForEachWorker(1, 8) allocated %.1f times", allocs)
	}
}

func BenchmarkForEach(b *testing.B) {
	const n = 64
	var sink [n]int64
	for _, workers := range []int{1, 2, 4} {
		b.Run(strconv.Itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			for it := 0; it < b.N; it++ {
				ForEach(n, workers, func(i int) { sink[i] += int64(i) })
			}
		})
	}
}
