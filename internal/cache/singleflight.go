package cache

import (
	"context"
	"sync"

	"repro/internal/dnswire"
)

// flight is one in-progress resolution shared by every concurrent
// caller asking for the same key. done is made by the first waiter,
// under flightMu: a miss nobody else asks for — nearly every one —
// never builds a channel.
type flight struct {
	done chan struct{}
	msg  *dnswire.Message
	err  error
}

// flightPool recycles flights nobody joined. Waiters only take a flight,
// and set its done, under flightMu, so once the leader has removed its
// flight from inflight under that lock a nil done proves no one else
// holds it.
var flightPool = sync.Pool{New: func() any { return new(flight) }}

// Do collapses concurrent misses for (name, typ): the first caller
// runs fn, every concurrent caller blocks until that resolution
// finishes and shares its result. shared reports whether this caller
// waited on another's flight (true) or ran fn itself (false). Waiters
// honour ctx cancellation without cancelling the leader's resolution.
//
// Do does not touch the cache's entries: the caller decides whether
// and how to Put the result (resolver.WithCache inserts only
// successful, cacheable answers). Sequential calls never share — an
// error is re-tried by the next caller, matching the
// errors-are-not-cached contract.
func (c *Cache) Do(ctx context.Context, name dnswire.Name, typ dnswire.Type, fn func() (*dnswire.Message, error)) (msg *dnswire.Message, shared bool, err error) {
	k := key{name.Canonical(), typ}
	c.flightMu.Lock()
	if f, ok := c.inflight[k]; ok {
		if f.done == nil {
			f.done = make(chan struct{})
		}
		done := f.done
		c.flightMu.Unlock()
		c.shared.Add(1)
		if inst := c.inst; inst != nil {
			inst.shared.Inc()
		}
		select {
		case <-done:
			return f.msg, true, f.err
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
	f := flightPool.Get().(*flight)
	c.inflight[k] = f
	c.flightMu.Unlock()

	msg, err = fn()
	f.msg, f.err = msg, err
	c.flightMu.Lock()
	delete(c.inflight, k)
	done := f.done
	c.flightMu.Unlock()
	if done != nil {
		close(done) // the waiters own f now
	} else {
		*f = flight{}
		flightPool.Put(f)
	}
	return msg, false, err
}
