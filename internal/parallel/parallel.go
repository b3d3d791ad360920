// Package parallel provides the bounded-worker primitive shared by the
// pipeline's concurrent stages: the crawler's in-poll fetch fan-out, the
// classifier's batch scoring, the monitor's due-account sweep, and the
// study's per-document worker pool.
//
// The contract that keeps parallel runs bit-identical to sequential ones is
// deliberately narrow: ForEach promises nothing about execution order, so
// callers write result i into slot i of a pre-sized slice and then commit
// the slots in deterministic order on the calling goroutine. All shared
// mutation lives in the ordered commit, never in the workers.
package parallel

import (
	"sync"
	"sync/atomic"
)

// ForEach invokes fn(i) for every i in [0, n), running at most workers
// calls concurrently. workers <= 1 (or n <= 1) degrades to a plain loop on
// the calling goroutine, guaranteeing behaviour identical to the
// pre-concurrency code path — which is why every Concurrency/Parallelism
// knob in this repo treats 1 as "fully sequential".
func ForEach(n, workers int, fn func(int)) {
	ForEachWorker(n, workers, func(_, i int) { fn(i) })
}

// Workers returns the effective worker count ForEach and ForEachWorker use
// for n items: workers clamped to n, with anything <= 1 meaning one
// (sequential). Callers sizing per-worker scratch allocate exactly this
// many slots.
func Workers(n, workers int) int {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return 1
	}
	return workers
}

// ForEachWorker is ForEach for callers that keep per-worker scratch state:
// fn receives a stable worker id in [0, Workers(n, workers)) alongside the
// item index, and no two concurrent calls share a worker id — so fn may
// freely reuse scratch[w] without locks. The sequential degradation rule is
// ForEach's: one worker, id 0, on the calling goroutine.
//
// With more than one worker, items are handed out by a single atomic index
// counter: each worker claims the next unclaimed index until none remain.
// The caller runs as worker 0 and spawns the other workers-1 goroutines, so
// there is no feeder goroutine and no channel handoff per item.
func ForEachWorker(n, workers int, fn func(worker, i int)) {
	workers = Workers(n, workers)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	s := &sweep{n: int64(n), fn: fn}
	s.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go s.spawned(w)
	}
	s.work(0)
	s.wg.Wait()
}

// sweep is one ForEachWorker call's shared state.
type sweep struct {
	next atomic.Int64 // the next unclaimed index
	n    int64
	fn   func(worker, i int)
	wg   sync.WaitGroup
}

// spawned is work for a worker on a goroutine of its own.
func (s *sweep) spawned(w int) {
	defer s.wg.Done()
	s.work(w)
}

// work runs fn as worker w over claimed indices until none remain.
func (s *sweep) work(w int) {
	for {
		i := s.next.Add(1) - 1
		if i >= s.n {
			return
		}
		s.fn(w, int(i))
	}
}
