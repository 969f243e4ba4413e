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
// The leader gets fn's message itself. The waiters share one copy of it
// (dnswire.Message.CopyInto), taken before the leader returns and only
// when someone joined, so the leader may keep, stamp or pool its answer
// at once; the waiters' copy is read-only.
//
// Do does not touch the cache's entries: the caller decides whether
// and how to Put the result (Answer inserts only successful,
// cacheable answers). Sequential calls never share — an
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
		c.shared.Inc()
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
	c.flightMu.Lock()
	delete(c.inflight, k)
	done := f.done
	c.flightMu.Unlock()
	if done == nil {
		flightPool.Put(f) // untouched: nobody joined
		return msg, false, err
	}
	if msg != nil {
		f.msg = msg.CopyInto(nil)
	}
	f.err = err
	close(done) // the waiters own f now
	return msg, false, err
}

// Answer answers q, which has a question, the one way both cache fronts
// do (resolver.WithCache and recursive.Resolver): a hit is copied into
// dst (LookupInto); a miss runs fetch on q inside Do, and Put keeps a
// copy of a NOERROR or NXDOMAIN answer before any waiter sees it. The
// leader's answer is fetch's own message when dst is nil, and otherwise
// a copy in dst, the message going back to dnswire.PutMessage; a waiter
// copies the flight's answer into dst. Every answer is stamped with q's
// ID, RD bit and question, since the cache matches names without regard
// to case and the asker whose answer filled it may have spelled its
// question otherwise. The outcome is the lookup's: Miss for the leader
// and for a waiter alike.
func (c *Cache) Answer(ctx context.Context, q, dst *dnswire.Message, fetch func(context.Context, *dnswire.Message) (*dnswire.Message, error)) (*dnswire.Message, Outcome, error) {
	question := q.Questions[0]
	resp, outcome := c.LookupInto(question.Name, question.Type, dst)
	if resp == nil {
		msg, shared, err := c.Do(ctx, question.Name, question.Type, func() (*dnswire.Message, error) {
			resp, err := fetch(ctx, q)
			if err != nil {
				return nil, err
			}
			if resp.Header.RCode == dnswire.RCodeNoError || resp.Header.RCode == dnswire.RCodeNXDomain {
				c.Put(question.Name, question.Type, resp)
			}
			return resp, nil
		})
		switch {
		case err != nil:
			return nil, Miss, err
		case shared:
			resp = msg.CopyInto(dst)
		case dst == nil:
			resp = msg
		default:
			resp = msg.CopyInto(dst)
			dnswire.PutMessage(msg)
		}
	}
	resp.Header.ID = q.Header.ID
	resp.Header.RecursionDesired = q.Header.RecursionDesired
	if len(resp.Questions) > 0 {
		resp.Questions[0] = question
	}
	return resp, outcome, nil
}
