package cache

import (
	"context"
	"time"

	"repro/internal/dnswire"
)

// timeUnixNano converts a stored UnixNano stamp back to a time.Time.
func timeUnixNano(n int64) time.Time { return time.Unix(0, n) }

// Refresher is the upstream fetch hook background refreshes run: it
// resolves (name, typ) and returns the raw response. The cache owns
// the cacheability decision (only NOERROR/NXDOMAIN answers with a
// usable TTL are stored); the hook just fetches. The response becomes
// the cache's: it keeps a copy (Put) and hands the message itself to
// dnswire.PutMessage, so the hook returns a message nothing else holds
// — names and RData aside, which may be shared. The ctx passed in is
// detached from any foreground caller — cancelling a client query
// never cancels the refresh it triggered — and carries a 5 s deadline
// (refreshTimeout).
type Refresher func(ctx context.Context, name dnswire.Name, typ dnswire.Type) (*dnswire.Message, error)

// SetRefresher installs the upstream fetch hook serve-stale and
// prefetch refreshes use. Wire it once, when the cache is plumbed
// into its resolver (resolver.WithCache and recursive.New both do
// this); the last call wins. Without a refresher, stale answers are
// still served but entries are never repopulated — they simply lapse
// when StaleTTL runs out.
func (c *Cache) SetRefresher(fn Refresher) {
	if fn == nil {
		c.refresher.Store(nil)
		return
	}
	c.refresher.Store(&fn)
}

// Wait blocks until every in-flight background refresh has finished.
// Use it in shutdown paths (and tests) to drain the detached
// refreshers before tearing down the upstream they resolve through.
func (c *Cache) Wait() { c.refreshWG.Wait() }

// refreshDue reports whether a hit on e may launch a refresh: a
// refresher is installed and no refresh of e's key failed within
// refreshBackoff, so a dead upstream under a stale-hit storm sees one
// probe per backoff window, not one per client query. The caller holds
// e's shard's read lock.
func (c *Cache) refreshDue(e *entry) bool {
	if c.refresher.Load() == nil {
		return false
	}
	failedAt := e.refreshFailedAt.Load()
	return failedAt == 0 || c.clock().Sub(timeUnixNano(failedAt)) >= refreshBackoff
}

// launchRefresh starts one deduplicated background refresh for k.
// prefetch marks popularity-triggered refreshes (counted separately
// from stale-triggered ones). The refresh holds k, never an entry, so
// Put may recycle the entry that launched it.
func (c *Cache) launchRefresh(k key, prefetch bool) {
	fnp := c.refresher.Load()
	if fnp == nil {
		return
	}
	c.refreshMu.Lock()
	if _, inflight := c.refreshing[k]; inflight {
		c.refreshMu.Unlock()
		return
	}
	c.refreshing[k] = struct{}{}
	c.refreshWG.Add(1)
	c.refreshMu.Unlock()

	if prefetch {
		c.prefetches.Inc()
	}
	go c.runRefresh(k, *fnp)
}

// runRefresh performs one background refresh: fetch through the
// refresher on a detached, deadline-bounded context, store the answer
// if it is cacheable, and otherwise stamp the failure on the entry k has
// now, if any, and leave it in place so it keeps serving until StaleTTL
// lapses. A successful refresh's entry starts unstamped.
func (c *Cache) runRefresh(k key, fn Refresher) {
	defer func() {
		c.refreshMu.Lock()
		delete(c.refreshing, k)
		c.refreshMu.Unlock()
		c.refreshWG.Done()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), refreshTimeout)
	defer cancel()
	msg, err := fn(ctx, k.name, k.typ)
	ok := err == nil && msg != nil &&
		(msg.Header.RCode == dnswire.RCodeNoError || msg.Header.RCode == dnswire.RCodeNXDomain) &&
		c.Put(k.name, k.typ, msg)
	dnswire.PutMessage(msg)
	if ok {
		c.refreshes.Inc()
		return
	}
	c.refreshFails.Inc()
	s := c.shardFor(k)
	s.mu.RLock()
	if e := find(&s.index, c.hashOf(k), k.name, k.typ); e != nil {
		e.refreshFailedAt.Store(c.clock().UnixNano())
	}
	s.mu.RUnlock()
}
