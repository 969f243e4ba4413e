package resolver

import (
	"context"
	"crypto/tls"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/deadline"
	"repro/internal/dnsclient"
	"repro/internal/dnswire"
	"repro/internal/dot"
	"repro/internal/tlsutil"
)

// TestWithTimeoutUnarmedAllocBudget: bounding an attempt that never
// waits on its context costs nothing: the lazy deadline comes from a
// pool. context.WithTimeout read 5 here (timer context, timer, stop
// closure), 7 once a child derived from it; a fresh deadline.Lazy read 1.
func TestWithTimeoutUnarmedAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	q := Query("t.a.com.", dnswire.TypeA)
	canned := q.Reply()
	var complaint string
	next := Func(func(ctx context.Context, _ *dnswire.Message) (*dnswire.Message, Timing, error) {
		lazy, ok := ctx.(*deadline.Lazy)
		switch d, has := ctx.Deadline(); {
		case !ok:
			complaint = "attempt context is not a lazy deadline"
		case !has || time.Until(d) > 3*time.Second:
			complaint = "attempt context does not carry the attempt timeout"
		case ctx.Err() != nil || lazy.Armed():
			complaint = "attempt context armed (or dead) before anyone asked for Done"
		}
		return canned, Timing{Attempts: 1}, nil
	})
	for name, r := range map[string]Resolver{
		"per attempt": WithTimeout(next, 3*time.Second, 0),
		"overall":     WithTimeout(next, 0, 3*time.Second),
		"both":        WithTimeout(next, 3*time.Second, time.Minute),
	} {
		ctx := context.Background()
		n := testing.AllocsPerRun(200, func() {
			if _, _, err := r.Resolve(ctx, q); err != nil {
				t.Fatal(err)
			}
		})
		if complaint != "" {
			t.Fatalf("%s: %s", name, complaint)
		}
		if n != 0 {
			t.Errorf("%s: %.1f allocs per unarmed WithTimeout, want 0", name, n)
		}
	}
}

// TestPooledBoundIsEachAttemptsOwn: concurrent attempts share one pool
// of bounds, some arming theirs with Done and some not. Each attempt
// gets a bound that starts unarmed, sits under its own caller's context
// and carries its own deadline for the whole call, and an armed bound's
// Done is closed by the time Resolve returns — the Stop that comes
// before it goes back to the pool. Run it under -race.
func TestPooledBoundIsEachAttemptsOwn(t *testing.T) {
	const (
		bound    = time.Minute
		workers  = 8
		attempts = 300
	)
	type caller struct{}
	var armedDone [workers]<-chan struct{}
	next := Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
		w := ctx.Value(caller{}).(int)
		lazy, ok := ctx.(*deadline.Lazy)
		if !ok || lazy.Armed() || ctx.Err() != nil {
			t.Errorf("worker %d: attempt bound %T armed or dead on entry", w, ctx)
		}
		d, _ := ctx.Deadline()
		if w%2 == 0 {
			armedDone[w] = ctx.Done()
		}
		runtime.Gosched() // let the other workers take and return bounds
		if got, _ := ctx.Deadline(); got != d || ctx.Value(caller{}) != w || ctx.Err() != nil {
			t.Errorf("worker %d: the bound changed under the attempt", w)
		}
		if until := time.Until(d); until <= 0 || until > bound {
			t.Errorf("worker %d: deadline %v from now, want within %v", w, until, bound)
		}
		return q.Reply(), Timing{Attempts: 1}, nil
	})
	r := WithTimeout(next, bound, 0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.WithValue(context.Background(), caller{}, w)
			q := Query("t.a.com.", dnswire.TypeA)
			for i := 0; i < attempts; i++ {
				if _, _, err := r.Resolve(ctx, q); err != nil {
					t.Error(err)
					return
				}
				if done := armedDone[w]; done != nil {
					select {
					case <-done:
					default:
						t.Errorf("worker %d: an armed bound was still live after Resolve returned", w)
					}
					armedDone[w] = nil
				}
			}
		}()
	}
	wg.Wait()
}

// TestWithTimeoutNoBound: with neither bound set there is nothing to
// wrap; the attempt runs on the caller's own context.
func TestWithTimeoutNoBound(t *testing.T) {
	caller := context.Background()
	next := Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, Timing, error) {
		if ctx != caller {
			t.Errorf("attempt context = %v, want the caller's", ctx)
		}
		return q.Reply(), Timing{Attempts: 1}, nil
	})
	if _, _, err := WithTimeout(next, 0, 0).Resolve(caller, Query("t.a.com.", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
}

// TestWithTimeoutTighterBoundWins: with both bounds set the attempt
// ends at the earlier one, whichever that is.
func TestWithTimeoutTighterBoundWins(t *testing.T) {
	park := Func(func(ctx context.Context, _ *dnswire.Message) (*dnswire.Message, Timing, error) {
		<-ctx.Done()
		return nil, Timing{Attempts: 1}, ctx.Err()
	})
	for _, tc := range []struct{ perAttempt, overall time.Duration }{
		{20 * time.Millisecond, time.Hour},
		{time.Hour, 20 * time.Millisecond},
	} {
		start := time.Now()
		_, _, err := WithTimeout(park, tc.perAttempt, tc.overall).Resolve(context.Background(), Query("t.a.com.", dnswire.TypeA))
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%v/%v: err = %v, want DeadlineExceeded", tc.perAttempt, tc.overall, err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("%v/%v: took %v", tc.perAttempt, tc.overall, elapsed)
		}
	}
}

// TestAttemptTimeoutBoundsSilentUpstream: the per-attempt bound has no
// timer behind it any more, so it holds only because each transport
// turns ctx.Deadline() into a socket deadline. A Do53 server and a DoT
// server that take the query and never answer must each cost one
// attempt timeout, not the client's own (much longer) default.
func TestAttemptTimeoutBoundsSilentUpstream(t *testing.T) {
	const attempt = 80 * time.Millisecond

	udp, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()

	cfg, err := tlsutil.ServerConfig("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := tls.Listen("tcp", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				io.Copy(io.Discard, conn) // handshake, swallow queries, say nothing
			}()
		}
	}()
	dotClient := &dot.Client{Addr: ln.Addr().String(), TLSConfig: tlsutil.InsecureClientConfig()}
	defer dotClient.Close()

	for _, tc := range []struct {
		name      string
		transport Resolver
	}{
		{"do53", NewDo53(udp.LocalAddr().String(), &dnsclient.Client{})},
		{"dot", NewDoT(dotClient)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := WithTimeout(tc.transport, attempt, 0)
			start := time.Now()
			_, _, err := r.Resolve(context.Background(), Query("silent.a.com.", dnswire.TypeA))
			elapsed := time.Since(start)
			var nerr net.Error
			if err == nil || !(errors.As(err, &nerr) && nerr.Timeout()) && !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want a timeout", err)
			}
			if elapsed < attempt || elapsed > 2*time.Second {
				t.Errorf("silent upstream held the attempt for %v, want about %v", elapsed, attempt)
			}
		})
	}
}
