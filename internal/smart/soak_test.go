package smart

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/obs"
	"repro/internal/resolver"
)

// TestSmartSoak drives the smart resolver with many goroutines over
// many destinations while chaos faults (drops, SERVFAILs, slowdowns)
// hit every candidate, then kills one candidate outright mid-run so
// its breaker trips and winners evict. Afterwards it asserts the exact
// accounting identities the Stats contract documents — every query,
// race, win, probe, and failure must be accounted for with no slack —
// and that the obs counters agree with the atomic stats. Run under
// -race this doubles as the concurrency soak for the winner table.
func TestSmartSoak(t *testing.T) {
	queriesPerWorker := 400
	workers := 8
	if testing.Short() {
		queriesPerWorker = 80
		workers = 4
	}

	mk := func(delay time.Duration, seed int64) resolver.Resolver {
		return chaos(&soakStub{delay: delay}, seed)
	}
	cands := []Candidate{
		{Kind: resolver.Do53, Resolver: mk(500*time.Microsecond, 1)},
		{Kind: resolver.DoH, Resolver: mk(time.Millisecond, 2)},
		{Kind: resolver.DoT, Resolver: mk(1500*time.Microsecond, 3)},
	}
	dying := &soakStub{delay: 200 * time.Microsecond}
	brk := resolver.NewBreaker(resolver.BreakerPolicy{FailureThreshold: 3, Now: frozen})
	cands = append(cands, Candidate{Kind: resolver.DoQ, Resolver: dying, Breaker: brk})

	reg := obs.NewRegistry()
	s, err := New(Config{
		SmartOptions: resolver.SmartOptions{
			Stagger:       500 * time.Microsecond,
			ProbeInterval: 5 * time.Millisecond,
			ReRaceAfter:   -1,
		},
		Candidates: cands,
		Registry:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	var failures, successes atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < queriesPerWorker; i++ {
				// Kill the DoQ candidate a third of the way in: its
				// breaker trips and any destination remembering it
				// evicts and re-races.
				if w == 0 && i == queriesPerWorker/3 {
					dying.dead.Store(true)
				}
				dest := fmt.Sprintf("d%d.soak.example.", rng.Intn(32))
				q := resolver.Query(dnswire.NewName(dest), dnswire.TypeA)
				_, _, err := s.Resolve(context.Background(), q)
				if err != nil {
					failures.Add(1)
				} else {
					successes.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	s.Close()

	// Identities 1 and 2, as /debug/invariants checks them: every query
	// took the remembered winner or raced, and every race crowned a
	// winner or failed.
	c := counters(reg)
	total := int64(workers * queriesPerWorker)
	if c["smart_queries_total"] != total {
		t.Fatalf("smart_queries_total = %d, want %d", c["smart_queries_total"], total)
	}
	for i, diff := range obs.Check(reg, Identities) {
		if diff != 0 {
			t.Errorf("%s: left - right = %d in %v", Identities[i].Name, diff, c)
		}
	}
	// Identity 3: the only way a caller sees an error is a failed race
	// (remembered-winner failures re-race instead of surfacing).
	if failures.Load() != c["smart_race_fail_total"] {
		t.Errorf("caller failures = %d, smart_race_fail_total = %d", failures.Load(), c["smart_race_fail_total"])
	}
	if successes.Load()+failures.Load() != total {
		t.Errorf("caller accounting broken: %d + %d != %d", successes.Load(), failures.Load(), total)
	}
	// Identity 4: probes either succeeded or failed, nothing dangling
	// after Close.
	if c["smart_probe_fail_total"] > c["smart_probe_total"] {
		t.Errorf("probe failures(%d) > probes(%d)", c["smart_probe_fail_total"], c["smart_probe_total"])
	}
	// The dead candidate's breaker must have tripped and evicted any
	// winners pointing at it.
	if brk.State() != resolver.BreakerOpen {
		t.Error("dead candidate's breaker never opened")
	}
	if c["smart_race_breaker_open_total"]+c["smart_race_winner_fail_total"] == 0 {
		t.Error("candidate death caused no re-races at all")
	}

	// Stats reads the same counters.
	st := s.Stats()
	checks := map[string]int64{
		"smart_queries_total":           st.Queries,
		"smart_remembered_total":        st.Remembered,
		"smart_race_first_total":        st.RacesFirst,
		"smart_race_expired_total":      st.RacesExpired,
		"smart_race_winner_fail_total":  st.RacesWinnerFail,
		"smart_race_breaker_open_total": st.RacesBreakerOpen,
		"smart_race_fail_total":         st.RaceFailures,
		"smart_probe_total":             st.Probes,
		"smart_probe_fail_total":        st.ProbeFailures,
		"smart_switch_total":            st.Switches,
		"smart_fallback_total":          st.Evictions,
		"smart_win_do53_total":          st.WinsByCandidate[0],
		"smart_win_doh_total":           st.WinsByCandidate[1],
		"smart_win_dot_total":           st.WinsByCandidate[2],
		"smart_win_doq_total":           st.WinsByCandidate[3],
	}
	for name, want := range checks {
		if got, ok := c[name]; !ok || got != want {
			t.Errorf("counter %s = %d, stats say %d", name, got, want)
		}
	}
	if races := st.RacesFirst + st.RacesExpired + st.RacesWinnerFail + st.RacesBreakerOpen; st.Races != races {
		t.Errorf("Stats().Races = %d, causes sum to %d", st.Races, races)
	}
	t.Logf("soak: %+v", st)
}

// chaos wraps next in the soak's seeded fault mix: per call, 5 % drops
// (errStub), 3 % SERVFAIL answers, 5 % 2 ms slowdowns, the rest
// through untouched.
func chaos(next resolver.Resolver, seed int64) resolver.Resolver {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return resolver.Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, resolver.Timing, error) {
		mu.Lock()
		u := rng.Float64()
		mu.Unlock()
		switch {
		case u < 0.05:
			return nil, resolver.Timing{Attempts: 1}, errStub
		case u < 0.08:
			resp := q.Reply()
			resp.Header.RCode = dnswire.RCodeServFail
			return resp, resolver.Timing{Attempts: 1}, nil
		case u < 0.13:
			timer := time.NewTimer(2 * time.Millisecond)
			defer timer.Stop()
			select {
			case <-timer.C:
			case <-ctx.Done():
				return nil, resolver.Timing{Attempts: 1}, ctx.Err()
			}
			resp, t, err := next.Resolve(ctx, q)
			t.RoundTrip += 2 * time.Millisecond
			t.Total += 2 * time.Millisecond
			return resp, t, err
		}
		return next.Resolve(ctx, q)
	})
}

// soakStub answers after a fixed delay until dead is flipped.
type soakStub struct {
	delay time.Duration
	dead  atomic.Bool
}

func (s *soakStub) Resolve(ctx context.Context, q *dnswire.Message) (*dnswire.Message, resolver.Timing, error) {
	if s.dead.Load() {
		return nil, resolver.Timing{Attempts: 1}, errStub
	}
	if s.delay > 0 {
		timer := time.NewTimer(s.delay)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
			return nil, resolver.Timing{Attempts: 1}, ctx.Err()
		}
	}
	if s.dead.Load() {
		return nil, resolver.Timing{Attempts: 1}, errStub
	}
	return q.Reply(), resolver.Timing{Attempts: 1, Total: s.delay, RoundTrip: s.delay}, nil
}
