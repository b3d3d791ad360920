// Package lease is the work-queue layer that lets N pipeline worker
// groups partition one logical study without overlap.
//
// A Queue holds a set of keyed work items (one per source poll, prepare
// shard, or monitor shard) and hands each out under a lease: a worker
// Acquires an item, optionally Renews it while working, and Releases it
// when the result is committed. Leases expire — a worker that crashes
// while holding one simply stops renewing, and after the TTL the item
// becomes stealable. Steal order is deterministic: Acquire always grants
// the lowest available key, so given the same sequence of (worker, now)
// calls, every run distributes work identically.
//
// The queue never reads a wall clock. Every operation takes an explicit
// `now`, which in studies is a round counter layered on the frozen
// intra-day virtual clock — expiry is therefore a pure function of the
// call sequence, which is what keeps sharded runs bit-identical across
// worker kills (see DESIGN.md, "Sharded execution").
//
// State is checkpointable: Snapshot captures the epoch and which items
// are done; in-flight leases are deliberately NOT persisted — a lease is
// a claim by a live worker, and no worker survives a process restart.
package lease

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

var (
	// ErrLeaseLost is returned by Renew and Release when the presented
	// lease is no longer valid: it expired, or the item was stolen by
	// another worker (which bumps the generation).
	ErrLeaseLost = errors.New("lease: lease lost")
	// ErrUnknownKey is returned when a lease references a key the queue
	// does not hold in the current epoch.
	ErrUnknownKey = errors.New("lease: unknown key")
)

// Status is the lifecycle state of one work item.
type Status int

const (
	// Pending items are available for Acquire.
	Pending Status = iota
	// Leased items are held by a worker; they become stealable once the
	// lease expires.
	Leased
	// Done items have been released successfully and will not be granted
	// again this epoch.
	Done
)

func (s Status) String() string {
	switch s {
	case Pending:
		return "pending"
	case Leased:
		return "leased"
	case Done:
		return "done"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Lease is a worker's claim on one item. The zero value is invalid.
// Leases are value types: a stale copy (after expiry or steal) fails
// Renew/Release with ErrLeaseLost.
type Lease struct {
	// Key is the work item this lease covers.
	Key string
	// Holder is the worker index the lease was granted to.
	Holder int
	gen    uint64
}

// Event describes one lease-state transition worth auditing (currently
// steals). The study driver appends these to the store commit log.
type Event struct {
	Key  string // work item
	From int    // worker that lost the lease
	To   int    // worker that took it
	Gen  uint64 // new generation after the steal
}

type record struct {
	status Status
	holder int
	gen    uint64
	expiry time.Time
}

// Queue is a deterministic lease/work queue. All methods are safe for
// concurrent use; determinism additionally requires that Acquire calls
// happen in a deterministic order (the study driver acquires on one
// goroutine, in worker order, per scheduling round).
type Queue struct {
	mu       sync.Mutex
	ttl      time.Duration
	epoch    int
	items    map[string]*record
	order    []string // sorted keys of items
	steals   int64
	expiries int64
	recorder func(Event)
}

// New returns an empty queue whose leases expire ttl after the `now` they
// were granted or last renewed at. ttl must be positive.
func New(ttl time.Duration) (*Queue, error) {
	if ttl <= 0 {
		return nil, fmt.Errorf("lease: ttl must be positive, got %v", ttl)
	}
	return &Queue{ttl: ttl, items: map[string]*record{}}, nil
}

// SetRecorder installs a callback invoked (synchronously, under the queue
// lock) for every audit-worthy lease event. Pass nil to disable.
func (q *Queue) SetRecorder(fn func(Event)) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.recorder = fn
}

// BeginEpoch replaces the queue's work items. Keys are deduplicated and
// held in sorted order regardless of argument order. If epoch equals the
// queue's current epoch (the restore path), items already marked done
// keep that status; any other epoch starts every item pending.
func (q *Queue) BeginEpoch(epoch int, keys []string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	keepDone := map[string]bool{}
	if epoch == q.epoch {
		for k, r := range q.items {
			if r.status == Done {
				keepDone[k] = true
			}
		}
	}
	q.epoch = epoch
	q.items = make(map[string]*record, len(keys))
	q.order = q.order[:0]
	for _, k := range keys {
		if _, dup := q.items[k]; dup {
			continue
		}
		r := &record{status: Pending}
		if keepDone[k] {
			r.status = Done
		}
		q.items[k] = r
		q.order = append(q.order, k)
	}
	sort.Strings(q.order)
}

// Acquire grants the lowest-keyed available item to holder: a pending
// item, or a leased item whose lease has expired (a steal, which bumps
// the generation so the previous holder's lease handle dies). It returns
// false when nothing is available at now.
func (q *Queue) Acquire(holder int, now time.Time) (Lease, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, k := range q.order {
		r := q.items[k]
		if l, ok := q.grant(k, r, holder, now); ok {
			return l, true
		}
	}
	return Lease{}, false
}

// AcquireKey grants one specific item to holder, under the same rules as
// Acquire (pending, or expired-lease steal). Stream prepare shards use
// this: shard i owns exactly the item "prepare/<i>".
func (q *Queue) AcquireKey(key string, holder int, now time.Time) (Lease, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	r, ok := q.items[key]
	if !ok {
		return Lease{}, false
	}
	return q.grant(key, r, holder, now)
}

// grant is the common Acquire/AcquireKey body. Caller holds q.mu.
func (q *Queue) grant(key string, r *record, holder int, now time.Time) (Lease, bool) {
	switch r.status {
	case Pending:
	case Leased:
		if now.Before(r.expiry) {
			return Lease{}, false // validly held: double-acquire rejected
		}
		// Expired: steal. Bump the generation so the old handle dies.
		q.steals++
		q.expiries++
		if q.recorder != nil {
			q.recorder(Event{Key: key, From: r.holder, To: holder, Gen: r.gen + 1})
		}
	default: // Done
		return Lease{}, false
	}
	r.status = Leased
	r.holder = holder
	r.gen++
	r.expiry = now.Add(q.ttl)
	return Lease{Key: key, Holder: holder, gen: r.gen}, true
}

// Renew extends l's expiry to now+ttl. It fails with ErrLeaseLost if the
// lease expired (even if nobody stole it yet) or was stolen.
func (q *Queue) Renew(l Lease, now time.Time) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	r, err := q.validate(l, now)
	if err != nil {
		return err
	}
	r.expiry = now.Add(q.ttl)
	return nil
}

// Release marks l's item done. A release after expiry fails with
// ErrLeaseLost and the item stays stealable: once a lease has lapsed the
// worker must assume another worker owns (or will own) the item, and its
// result must be discarded.
func (q *Queue) Release(l Lease, now time.Time) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	r, err := q.validate(l, now)
	if err != nil {
		return err
	}
	r.status = Done
	return nil
}

// validate resolves l to its live record. Caller holds q.mu.
func (q *Queue) validate(l Lease, now time.Time) (*record, error) {
	r, ok := q.items[l.Key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownKey, l.Key)
	}
	if r.status != Leased || r.gen != l.gen || r.holder != l.Holder {
		return nil, fmt.Errorf("%w: %q (stolen or already released)", ErrLeaseLost, l.Key)
	}
	if !now.Before(r.expiry) {
		// Lapsed but not yet stolen: return it to the pool.
		r.status = Pending
		q.expiries++
		return nil, fmt.Errorf("%w: %q (expired)", ErrLeaseLost, l.Key)
	}
	return r, nil
}

// AllDone reports whether every item in the current epoch is done.
func (q *Queue) AllDone() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, r := range q.items {
		if r.status != Done {
			return false
		}
	}
	return true
}

// Remaining returns how many items are not yet done.
func (q *Queue) Remaining() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, r := range q.items {
		if r.status != Done {
			n++
		}
	}
	return n
}

// Steals returns how many leases have been stolen from expired holders
// over the queue's lifetime.
func (q *Queue) Steals() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.steals
}

// Expiries returns how many leases have lapsed (stolen or returned to
// the pool at a failed Release/Renew) over the queue's lifetime.
func (q *Queue) Expiries() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.expiries
}

// Epoch returns the current epoch number.
func (q *Queue) Epoch() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.epoch
}

// State is the checkpointable image of a queue: the epoch, the item
// keys, and which of them are done. Leases are not persisted — they are
// claims by live workers, and no worker survives a restart; on restore
// every non-done item is pending again.
type State struct {
	Epoch  int      `json:"epoch"`
	Keys   []string `json:"keys,omitempty"`
	Done   []string `json:"done,omitempty"`
	Steals int64    `json:"steals,omitempty"`
}

// Snapshot captures the queue state for a checkpoint.
func (q *Queue) Snapshot() State {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := State{Epoch: q.epoch, Steals: q.steals}
	for _, k := range q.order {
		st.Keys = append(st.Keys, k)
		if q.items[k].status == Done {
			st.Done = append(st.Done, k)
		}
	}
	return st
}

// Restore replaces the queue state with a snapshot: items in st.Done are
// done, every other key is pending, and no leases are outstanding.
func (q *Queue) Restore(st State) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.epoch = st.Epoch
	q.steals = st.Steals
	q.items = make(map[string]*record, len(st.Keys))
	q.order = q.order[:0]
	done := make(map[string]bool, len(st.Done))
	for _, k := range st.Done {
		done[k] = true
	}
	for _, k := range st.Keys {
		if _, dup := q.items[k]; dup {
			continue
		}
		r := &record{status: Pending}
		if done[k] {
			r.status = Done
		}
		q.items[k] = r
		q.order = append(q.order, k)
	}
	sort.Strings(q.order)
}
