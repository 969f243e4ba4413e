// Package deadline holds the one per-query deadline context the stack
// uses: the serve engine's QueryTimeout, the resolver policy's
// per-attempt and overall timeouts and the DoH handler's resolve bound
// all hand their callee a *Lazy.
//
// A query that is answered from a cache, or whose transport bounds its
// I/O with a socket deadline read from ctx.Deadline(), never waits on
// its context. context.WithTimeout still pays for a timer context, a
// runtime timer, a stop closure and — once a child derives from it — a
// children map and a Done channel, on every such query. Lazy reports
// the deadline at once and builds that machinery only when someone asks
// for Done.
package deadline

import (
	"context"
	"sync"
	"time"
)

// Lazy is a context.WithDeadline whose timer context is built on first
// use. The rules:
//
//   - Deadline answers at once (the earlier of its own and the
//     parent's); it never arms.
//   - Err never arms either: unarmed, it is the parent's Err, else
//     DeadlineExceeded once the clock passes the deadline.
//   - Done arms: it builds context.WithDeadline(parent, deadline) and
//     from then on Done, Err and Value are that context's, so package
//     context recognises it as its own and links derived contexts
//     straight into it instead of parking a goroutine on Done.
//   - Stop releases the timer if one was armed and cancels everything
//     derived from it. A Lazy first used after Stop is cancelled from
//     the start.
//
// The zero value is not a valid context; Reset one that the caller owns
// and reuses (the serve engine keeps one per worker, the resolver's
// timeout layer takes its from a pool).
type Lazy struct {
	mu       sync.Mutex
	parent   context.Context
	deadline time.Time
	armed    context.Context    // nil until Done is asked for, or Stop
	cancel   context.CancelFunc // non-nil only while armed holds a timer
}

// Reset stops c and makes it a fresh context under parent that expires
// at deadline. It is for an owner that hands c to one callee at a time:
// the callee's view of c ends when the callee returns, and whatever it
// derived from c was cancelled by the Stop before.
func (c *Lazy) Reset(parent context.Context, deadline time.Time) {
	c.mu.Lock()
	if c.cancel != nil {
		c.cancel()
	}
	c.parent, c.deadline, c.armed, c.cancel = parent, deadline, nil, nil
	c.mu.Unlock()
}

// Stop ends the context; it is the CancelFunc of context.WithDeadline.
func (c *Lazy) Stop() {
	c.mu.Lock()
	if c.armed == nil {
		c.armed = cancelledContext
	} else if c.cancel != nil {
		c.cancel()
	}
	c.mu.Unlock()
}

// Armed reports whether a timer context has been built and not yet
// replaced by Reset: what the allocation and leak tests assert on.
func (c *Lazy) Armed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cancel != nil
}

func (c *Lazy) state() (parent, armed context.Context, deadline time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.parent, c.armed, c.deadline
}

// Deadline implements context.Context.
func (c *Lazy) Deadline() (time.Time, bool) {
	parent, _, deadline := c.state()
	if d, ok := parent.Deadline(); ok && d.Before(deadline) {
		return d, true
	}
	return deadline, true
}

// Done implements context.Context; the first call arms the timer.
func (c *Lazy) Done() <-chan struct{} {
	c.mu.Lock()
	if c.armed == nil {
		c.armed, c.cancel = context.WithDeadline(c.parent, c.deadline)
	}
	armed := c.armed
	c.mu.Unlock()
	return armed.Done()
}

// Err implements context.Context without arming.
func (c *Lazy) Err() error {
	parent, armed, deadline := c.state()
	if armed != nil {
		return armed.Err()
	}
	if err := parent.Err(); err != nil {
		return err
	}
	if !time.Now().Before(deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

// Value implements context.Context: the parent's values, read through
// the armed context once there is one (see Lazy).
func (c *Lazy) Value(key any) any {
	c.mu.Lock()
	ctx := c.parent
	if c.cancel != nil {
		ctx = c.armed
	}
	c.mu.Unlock()
	return ctx.Value(key)
}

// cancelledContext is what a Lazy first used after Stop resolves to.
var cancelledContext = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()
