package crawler

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// detachParent is a cancellable parent that the context package cannot see
// through to a *cancelCtx (Value hides it), so a WithDeadline child
// registers through AfterFunc and live counts the registrations not yet
// detached.
type detachParent struct {
	context.Context
	live atomic.Int64
}

func (p *detachParent) Value(any) any { return nil }

func (p *detachParent) AfterFunc(f func()) func() bool {
	p.live.Add(1)
	stop := context.AfterFunc(p.Context, f)
	return func() bool {
		p.live.Add(-1)
		return stop()
	}
}

func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

func TestAttemptCtxErrWithoutDone(t *testing.T) {
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	parent := &detachParent{Context: cctx}
	c := newAttemptCtx(parent, 5*time.Millisecond)
	defer c.release()
	if err := c.Err(); err != nil {
		t.Fatalf("Err before the deadline = %v", err)
	}
	time.Sleep(10 * time.Millisecond)
	if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err past the deadline = %v, want context.DeadlineExceeded", err)
	}
	if c.armed != nil || parent.live.Load() != 0 {
		t.Fatal("Err armed a timer")
	}
	if !closed(c.Done()) {
		t.Fatal("Done not closed past the deadline")
	}
	if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err after Done = %v, want it to stay context.DeadlineExceeded", err)
	}
}

func TestAttemptCtxArmedDeadlineFires(t *testing.T) {
	c := newAttemptCtx(context.Background(), 5*time.Millisecond)
	defer c.release()
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("armed Done never closed")
	}
	if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err = %v, want context.DeadlineExceeded", err)
	}
	c.release()
	if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err after release = %v, want it to stay context.DeadlineExceeded", err)
	}
}

func TestAttemptCtxParentCancel(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	unarmed := newAttemptCtx(parent, time.Hour)
	armed := newAttemptCtx(parent, time.Hour)
	defer unarmed.release()
	defer armed.release()
	done := armed.Done()
	if closed(done) {
		t.Fatal("Done closed before any cancellation")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("parent cancellation did not reach the armed Done")
	}
	for name, c := range map[string]*attemptCtx{"unarmed": unarmed, "armed": armed} {
		if err := c.Err(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s Err = %v, want context.Canceled", name, err)
		}
	}
}

func TestAttemptCtxDeadline(t *testing.T) {
	early, cancelEarly := context.WithTimeout(context.Background(), time.Minute)
	defer cancelEarly()
	late, cancelLate := context.WithTimeout(context.Background(), 3*time.Hour)
	defer cancelLate()
	for _, tc := range []struct {
		name       string
		parent     context.Context
		wantParent bool
	}{
		{"no parent deadline", context.Background(), false},
		{"earlier parent deadline", early, true},
		{"later parent deadline", late, false},
	} {
		c := newAttemptCtx(tc.parent, time.Hour)
		d, ok := c.Deadline()
		want := c.deadline
		if tc.wantParent {
			want, _ = tc.parent.Deadline()
		}
		if !ok || !d.Equal(want) {
			t.Errorf("%s: Deadline = %v, %v; want %v, true", tc.name, d, ok, want)
		}
		c.release()
	}
}

func TestAttemptCtxValue(t *testing.T) {
	type key struct{}
	parent := context.WithValue(context.Background(), key{}, "v")
	c := newAttemptCtx(parent, time.Hour)
	defer c.release()
	if got := c.Value(key{}); got != "v" {
		t.Fatalf("Value = %v, want the parent's v", got)
	}
	if got := c.Value("absent"); got != nil {
		t.Fatalf("Value(absent) = %v, want nil", got)
	}
}

// TestAttemptCtxReleaseLeavesNoTimer: an attempt nobody waited on never
// registers with its parent; an armed one is cancelled on release, which
// stops its timer and detaches it from the parent.
func TestAttemptCtxReleaseLeavesNoTimer(t *testing.T) {
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	parent := &detachParent{Context: cctx}

	lazy := newAttemptCtx(parent, time.Hour)
	_ = lazy.Err()
	lazy.release()
	if lazy.armed != nil || parent.live.Load() != 0 {
		t.Fatal("an attempt without Done registered with its parent")
	}
	if !closed(lazy.Done()) || !errors.Is(lazy.Err(), context.Canceled) {
		t.Fatal("a released attempt must read as cancelled")
	}
	if lazy.armed != nil {
		t.Fatal("Done after release armed a timer")
	}

	armed := newAttemptCtx(parent, time.Hour)
	done := armed.Done()
	if parent.live.Load() != 1 {
		t.Fatalf("armed attempt: %d parent registrations, want 1", parent.live.Load())
	}
	armed.release()
	if parent.live.Load() != 0 {
		t.Fatal("release left the armed child registered with its parent")
	}
	if !closed(done) || !errors.Is(armed.armed.Err(), context.Canceled) {
		t.Fatal("release did not cancel the armed child")
	}
	if !errors.Is(armed.Err(), context.Canceled) {
		t.Fatalf("Err after release = %v, want context.Canceled", armed.Err())
	}
}
