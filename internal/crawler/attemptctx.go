package crawler

import (
	"context"
	"sync"
	"time"
)

// attemptCtx is the per-attempt deadline of one fetch, armed lazily.
// context.WithTimeout pays for a timer, its callback, a cancel closure and a
// registration in the parent's child set on every attempt, whether or not
// anything ever waits on the deadline. Most attempts never do: http.Client
// with a zero Timeout and the in-process service transport only poll Err,
// so attemptCtx answers Err by comparing the clock with the deadline and
// creates a real context.WithDeadline child only when Done is called — by
// a handler that stalls on r.Context().Done(), or by the wire transport.
//
// The contract matches a WithDeadline child of parent:
//   - Deadline is the earlier of the parent's deadline and the attempt's.
//   - Err is the parent's error, else context.DeadlineExceeded once the
//     deadline has passed (whether or not Done was ever called), else
//     context.Canceled after release; the first non-nil answer sticks,
//     and once Done has armed the child, Err is the child's.
//   - Done arms the child on first call and returns its channel.
//   - Value is the parent's.
type attemptCtx struct {
	parent   context.Context
	deadline time.Time

	mu     sync.Mutex
	armed  context.Context // the real child, nil until Done is called
	cancel context.CancelFunc
	err    error // sticky once non-nil
}

func newAttemptCtx(parent context.Context, timeout time.Duration) *attemptCtx {
	return &attemptCtx{parent: parent, deadline: time.Now().Add(timeout)}
}

func (c *attemptCtx) Deadline() (time.Time, bool) {
	if d, ok := c.parent.Deadline(); ok && d.Before(c.deadline) {
		return d, true
	}
	return c.deadline, true
}

func (c *attemptCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.armed == nil {
		if c.err != nil {
			// Already over (released, expired or cancelled) before anyone
			// waited: arming now would start a timer nothing stops.
			return closedDone
		}
		c.armed, c.cancel = context.WithDeadline(c.parent, c.deadline)
	}
	return c.armed.Done()
}

func (c *attemptCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.errLocked()
}

// errLocked settles c.err: the armed child's answer once there is one, so
// Err and Done agree, else the parent's error or the clock's. c.mu is held.
func (c *attemptCtx) errLocked() error {
	if c.err == nil {
		switch {
		case c.armed != nil:
			c.err = c.armed.Err()
		case c.parent.Err() != nil:
			c.err = c.parent.Err()
		case !time.Now().Before(c.deadline):
			c.err = context.DeadlineExceeded
		}
	}
	return c.err
}

func (c *attemptCtx) Value(key any) any { return c.parent.Value(key) }

// release ends the attempt, like the CancelFunc of context.WithTimeout: it
// stops the armed child's timer and detaches it from the parent, if Done
// armed one, and leaves Err at context.Canceled unless the attempt had
// already expired or been cancelled.
func (c *attemptCtx) release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cancel != nil {
		c.cancel() // touches the child and the parent only, never c
	}
	if c.errLocked() == nil {
		c.err = context.Canceled
	}
}

// closedDone is the Done channel of an attempt that was over before any
// caller asked for one.
var closedDone = func() chan struct{} { ch := make(chan struct{}); close(ch); return ch }()
