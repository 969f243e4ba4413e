package deadline

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"
)

// reset builds a Lazy the way its owners do: Reset on storage the caller
// holds, here to expire d from now.
func reset(parent context.Context, d time.Duration) *Lazy {
	c := new(Lazy)
	c.Reset(parent, time.Now().Add(d))
	return c
}

// TestLazyUnarmedAnswersWithoutTimer: Deadline, Err and Value are
// answered from the struct; none of them builds the timer context.
func TestLazyUnarmedAnswersWithoutTimer(t *testing.T) {
	type key struct{}
	parent := context.WithValue(context.Background(), key{}, "v")
	c := reset(parent, time.Hour)
	defer c.Stop()
	if d, ok := c.Deadline(); !ok || time.Until(d) > time.Hour || time.Until(d) < 59*time.Minute {
		t.Errorf("Deadline() = %v, %v", d, ok)
	}
	if err := c.Err(); err != nil {
		t.Errorf("Err() = %v before the deadline", err)
	}
	if got := c.Value(key{}); got != "v" {
		t.Errorf("Value = %v", got)
	}
	if c.Armed() {
		t.Error("Deadline, Err or Value armed the timer")
	}
	if n := testing.AllocsPerRun(200, func() {
		c.Deadline()
		c.Err()
	}); n != 0 {
		t.Errorf("Deadline+Err on an unarmed Lazy: %.0f allocs, want 0", n)
	}
}

// TestLazyErrByClock: an unarmed Lazy past its deadline says so, and
// arming it afterwards agrees.
func TestLazyErrByClock(t *testing.T) {
	c := &Lazy{parent: context.Background(), deadline: time.Now().Add(-time.Millisecond)}
	defer c.Stop()
	if err := c.Err(); err != context.DeadlineExceeded {
		t.Fatalf("Err() = %v past the deadline, want DeadlineExceeded", err)
	}
	if c.Armed() {
		t.Fatal("Err armed the timer")
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("Done open although Err reported the deadline")
	}
	if err := c.Err(); err != context.DeadlineExceeded {
		t.Errorf("Err() = %v once armed, want DeadlineExceeded", err)
	}
}

// TestLazyParentErrWins: a cancelled parent shows through an unarmed
// Lazy, and a parent's earlier deadline is the one reported.
func TestLazyParentErrWins(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	c := reset(parent, time.Hour)
	defer c.Stop()
	cancel()
	if err := c.Err(); err != context.Canceled {
		t.Errorf("Err() = %v under a cancelled parent, want Canceled", err)
	}
	if c.Armed() {
		t.Error("Err armed the timer")
	}
	early, cancelEarly := context.WithTimeout(context.Background(), time.Minute)
	defer cancelEarly()
	want, _ := early.Deadline()
	c2 := reset(early, time.Hour)
	defer c2.Stop()
	if d, _ := c2.Deadline(); !d.Equal(want) {
		t.Errorf("Deadline() = %v, want the parent's %v", d, want)
	}
}

// TestLazyFiresForAWaiter: someone parked on Done is woken at the
// deadline, without a goroutine of package context's in between.
func TestLazyFiresForAWaiter(t *testing.T) {
	c := reset(context.Background(), 30*time.Millisecond)
	defer c.Stop()
	before := runtime.NumGoroutine()
	child, cancel := context.WithCancel(c)
	defer cancel()
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("deriving a context started %d goroutine(s)", after-before)
	}
	if !c.Armed() {
		t.Fatal("deriving a context did not arm the timer")
	}
	for _, ctx := range []context.Context{c, child} {
		select {
		case <-ctx.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("Done never closed")
		}
	}
	if err := c.Err(); err != context.DeadlineExceeded {
		t.Errorf("Err() = %v, want DeadlineExceeded", err)
	}
}

// TestLazyStopLeavesNothingArmed: Stop ends an armed context at once —
// which is what stops its runtime timer — and with it everything
// derived; Stop on an unarmed one never builds a timer at all.
func TestLazyStopLeavesNothingArmed(t *testing.T) {
	c := reset(context.Background(), time.Hour)
	child, cancel := context.WithTimeout(c, time.Hour)
	defer cancel()
	done := c.Done()
	c.Stop()
	for _, ch := range []<-chan struct{}{done, child.Done()} {
		select {
		case <-ch:
		default:
			t.Fatal("an hour-long timer context is still live after Stop")
		}
	}
	if err := c.Err(); err != context.Canceled {
		t.Errorf("Err() = %v after Stop, want Canceled", err)
	}

	idle := reset(context.Background(), time.Hour)
	idle.Stop()
	if idle.Armed() {
		t.Error("Stop armed an idle context")
	}
	select {
	case <-idle.Done():
	default:
		t.Error("first use after Stop is not already cancelled")
	}
	if idle.Armed() {
		t.Error("use after Stop built a timer")
	}
}

// TestLazyResetStartsAfresh: the owner's reuse cycle. Each round is a
// new context — live, unarmed, with its own deadline — and what the
// round before derived stays cancelled.
func TestLazyResetStartsAfresh(t *testing.T) {
	var c Lazy
	var stale []context.Context
	for round := 0; round < 3; round++ {
		deadline := time.Now().Add(time.Duration(round+1) * time.Hour)
		c.Reset(context.Background(), deadline)
		if c.Armed() {
			t.Fatalf("round %d: armed right after Reset", round)
		}
		if err := c.Err(); err != nil {
			t.Fatalf("round %d: Err() = %v right after Reset", round, err)
		}
		if d, _ := c.Deadline(); !d.Equal(deadline) {
			t.Fatalf("round %d: Deadline() = %v, want %v", round, d, deadline)
		}
		if round%2 == 0 { // arm every other round
			child, cancel := context.WithCancel(&c)
			defer cancel()
			stale = append(stale, child)
		}
		c.Stop()
		if c.Err() == nil {
			t.Fatalf("round %d: live after Stop", round)
		}
	}
	for i, child := range stale {
		if child.Err() == nil {
			t.Errorf("context derived in armed round %d outlived it", i)
		}
	}
	// Reset without a Stop in between still ends the round before.
	c.Reset(context.Background(), time.Now().Add(time.Hour))
	left := c.Done()
	c.Reset(context.Background(), time.Now().Add(time.Hour))
	select {
	case <-left:
	default:
		t.Error("Reset left the previous round's timer context live")
	}
	c.Stop()
}

// TestLazyConcurrentUse: every method from many goroutines at once, for
// the race detector.
func TestLazyConcurrentUse(t *testing.T) {
	c := reset(context.Background(), 20*time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.Deadline()
			c.Err()
			c.Value(i)
			if i%2 == 0 {
				<-c.Done()
			}
			if i == 7 {
				c.Stop()
			}
		}(i)
	}
	wg.Wait()
	if c.Err() == nil {
		t.Error("Err() nil after the deadline and Stop")
	}
}

// TestDoneLeavesLazyUnarmed: Done looks through unarmed Lazys to the
// nearest other context without arming them, and answers an armed or
// stopped one with its own channel.
func TestDoneLeavesLazyUnarmed(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	outer := reset(parent, time.Hour)
	defer outer.Stop()
	inner := reset(outer, time.Hour)
	defer inner.Stop()
	if Done(inner) != parent.Done() {
		t.Error("Done of unarmed Lazys is not their parent's")
	}
	if outer.Armed() || inner.Armed() {
		t.Error("Done armed a Lazy")
	}
	if Done(context.Background()) != nil {
		t.Error("Done(Background) is not nil")
	}
	if armed := outer.Done(); Done(inner) != armed {
		t.Error("Done does not stop at an armed Lazy")
	}
	stopped := reset(parent, time.Hour)
	stopped.Stop()
	select {
	case <-Done(stopped):
	default:
		t.Error("Done of a stopped Lazy is open")
	}
}

// doneCtx is a parent that package context does not know, so an armed
// Lazy under it learns of its end from a goroutine, a moment late.
type doneCtx struct {
	context.Context
	done chan struct{}
}

func (c doneCtx) Done() <-chan struct{} { return c.done }

func (c doneCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// TestErrOnceDoneCloses: once the channel Done returned has closed, Err
// reports it, even when the Lazy was armed after Done looked through it
// (a cold dial arms it mid-exchange).
func TestErrOnceDoneCloses(t *testing.T) {
	parent := doneCtx{context.Background(), make(chan struct{})}
	c := reset(parent, time.Hour)
	defer c.Stop()
	done := Done(c)
	c.Done() // armed after Done looked through it
	close(parent.done)
	<-done
	if err := c.Err(); err != context.Canceled {
		t.Errorf("Err() = %v after the watched channel closed, want Canceled", err)
	}
}
