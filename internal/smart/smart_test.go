package smart

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/obs"
	"repro/internal/resolver"
)

var errStub = errors.New("smart_test: stub failure")

// stubCand is a controllable candidate: wall-clock delay (race
// ordering), modeled Timing.Total (EWMA scoring), and a failure
// switch.
type stubCand struct {
	delay time.Duration // wall time before answering
	total time.Duration // modeled latency reported in Timing.Total
	fail  atomic.Bool
	calls atomic.Int64
}

func (c *stubCand) Resolve(ctx context.Context, q *dnswire.Message) (*dnswire.Message, resolver.Timing, error) {
	c.calls.Add(1)
	if c.delay > 0 {
		timer := time.NewTimer(c.delay)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
			return nil, resolver.Timing{Attempts: 1}, ctx.Err()
		}
	}
	if c.fail.Load() {
		return nil, resolver.Timing{Attempts: 1}, errStub
	}
	return q.Reply(), resolver.Timing{Attempts: 1, Total: c.total, RoundTrip: c.total}, nil
}

func testQuery(name string) *dnswire.Message {
	return resolver.Query(dnswire.NewName(name), dnswire.TypeA)
}

// frozen is a clock that never moves: a tripped breaker on it stays
// open.
func frozen() time.Time { return time.Unix(0, 0) }

// ruleWinner is the slot RaceOutcome — the rule the campaign's smart
// column is derived with — elects for stub candidates in launch order.
func ruleWinner(stagger time.Duration, cands ...*stubCand) int {
	launches := make([]Launch, len(cands))
	for i, c := range cands {
		launches[i] = Launch{First: float64(c.delay), Reused: float64(c.delay)}
	}
	winner, _, _ := RaceOutcome(float64(stagger), launches)
	return winner
}

// TestNewRequiresTwoCandidates: New refuses a lone candidate, and two of
// one kind, whose wins would be one count (smart_win_<kind>_total).
func TestNewRequiresTwoCandidates(t *testing.T) {
	for _, kinds := range [][]resolver.Kind{
		{resolver.Do53},
		{resolver.DoT, resolver.DoH, resolver.DoT},
	} {
		var cands []Candidate
		for _, k := range kinds {
			cands = append(cands, Candidate{Kind: k, Resolver: &stubCand{}})
		}
		if _, err := New(Config{Candidates: cands}); err == nil {
			t.Errorf("New accepted candidates %v", kinds)
		}
	}
}

func TestRaceElectsFastestAndRemembers(t *testing.T) {
	fast := &stubCand{delay: time.Millisecond, total: 10 * time.Millisecond}
	mid := &stubCand{delay: 20 * time.Millisecond, total: 60 * time.Millisecond}
	slow := &stubCand{delay: 40 * time.Millisecond, total: 90 * time.Millisecond}
	const stagger = 2 * time.Millisecond
	stubs := []*stubCand{slow, mid, fast}
	cands := []Candidate{
		{Kind: resolver.DoH, Resolver: slow},
		{Kind: resolver.DoT, Resolver: mid},
		{Kind: resolver.Do53, Resolver: fast},
	}
	s, err := New(Config{
		SmartOptions: resolver.SmartOptions{Stagger: stagger, ProbeInterval: -1},
		Candidates:   cands,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// fast launches last, four milliseconds in, and still arrives first.
	want := ruleWinner(stagger, stubs...)

	resp, _, err := s.Resolve(context.Background(), testQuery("first.a.com."))
	if err != nil || resp == nil {
		t.Fatalf("first query: resp=%v err=%v", resp, err)
	}
	st := s.Stats()
	if st.Races != 1 || st.RacesFirst != 1 || st.Remembered != 0 {
		t.Fatalf("after first query: %+v", st)
	}
	if st.WinsByCandidate[want] != 1 {
		t.Fatalf("the race rule's winner (slot %d) did not win: wins=%v", want, st.WinsByCandidate)
	}

	// Steady state: only the remembered winner is queried.
	var before [3]int64
	for i, c := range stubs {
		before[i] = c.calls.Load()
	}
	for i := 0; i < 5; i++ {
		if _, _, err := s.Resolve(context.Background(), testQuery("warm.a.com.")); err != nil {
			t.Fatalf("warm query %d: %v", i, err)
		}
	}
	st = s.Stats()
	if st.Remembered != 5 || st.Races != 1 {
		t.Fatalf("steady state raced: %+v", st)
	}
	for i, c := range stubs {
		switch got := c.calls.Load() - before[i]; {
		case i == want && got != 5:
			t.Errorf("winner served %d of 5 warm queries", got)
		case i != want && got != 0:
			t.Errorf("loser in slot %d was queried %d times in steady state", i, got)
		}
	}
	if got := s.WinsByKind()[cands[want].Kind]; got != 1 {
		t.Errorf("WinsByKind[%s] = %d, want 1", cands[want].Kind, got)
	}
}

func TestStaggerBoundsFirstRaceFanOut(t *testing.T) {
	// With the winner answering well inside one stagger interval, the
	// race must launch only a single attempt: the first-query overhead
	// is bounded, not an all-out fan-out.
	fast := &stubCand{delay: time.Millisecond}
	slow := &stubCand{delay: time.Millisecond}
	const stagger = 250 * time.Millisecond
	s, err := New(Config{
		SmartOptions: resolver.SmartOptions{Stagger: stagger, ProbeInterval: -1},
		Candidates: []Candidate{
			{Kind: resolver.Do53, Resolver: fast},
			{Kind: resolver.DoH, Resolver: slow},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, timing, err := s.Resolve(context.Background(), testQuery("st.a.com."))
	if err != nil {
		t.Fatal(err)
	}
	if timing.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (stagger should gate the fan-out)", timing.Attempts)
	}
	if slow.calls.Load() != 0 {
		t.Error("second candidate launched despite the winner answering first")
	}
	// Equal candidates: the stagger alone decides, for the earlier launch.
	if want, wins := ruleWinner(stagger, fast, slow), s.Stats().WinsByCandidate; wins[want] != 1 {
		t.Errorf("the race rule's winner (slot %d) did not win: wins=%v", want, wins)
	}
}

func TestWinnerFailureRacesRemainder(t *testing.T) {
	a := &stubCand{delay: time.Millisecond, total: 5 * time.Millisecond}
	b := &stubCand{delay: 2 * time.Millisecond, total: 50 * time.Millisecond}
	s, err := New(Config{
		SmartOptions: resolver.SmartOptions{Stagger: time.Millisecond, ProbeInterval: -1},
		Candidates: []Candidate{
			{Kind: resolver.Do53, Resolver: a},
			{Kind: resolver.DoH, Resolver: b},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, _, err := s.Resolve(context.Background(), testQuery("wf.a.com.")); err != nil {
		t.Fatal(err)
	}
	a.fail.Store(true)
	resp, _, err := s.Resolve(context.Background(), testQuery("wf2.a.com."))
	if err != nil || resp == nil {
		t.Fatalf("query after winner failure: resp=%v err=%v", resp, err)
	}
	st := s.Stats()
	if st.RacesWinnerFail != 1 {
		t.Errorf("RacesWinnerFail = %d, want 1 (stats: %+v)", st.RacesWinnerFail, st)
	}
	if st.WinsByCandidate[1] != 1 {
		t.Errorf("fallback candidate should have won the re-race: wins=%v", st.WinsByCandidate)
	}
	// The re-race elected b; a switch is recorded.
	if st.Switches != 1 {
		t.Errorf("Switches = %d, want 1", st.Switches)
	}
	// Next query goes straight to the new winner.
	before := b.calls.Load()
	if _, _, err := s.Resolve(context.Background(), testQuery("wf3.a.com.")); err != nil {
		t.Fatal(err)
	}
	if b.calls.Load() != before+1 {
		t.Error("new winner not used for the following query")
	}
}

func TestBreakerOpenEvictsWinnerImmediately(t *testing.T) {
	a := &stubCand{delay: time.Millisecond}
	b := &stubCand{delay: 2 * time.Millisecond}
	brkA := resolver.NewBreaker(resolver.BreakerPolicy{FailureThreshold: 1, Now: frozen})
	s, err := New(Config{
		SmartOptions: resolver.SmartOptions{Stagger: time.Millisecond, ProbeInterval: -1},
		Candidates: []Candidate{
			{Kind: resolver.Do53, Resolver: a, Breaker: brkA},
			{Kind: resolver.DoH, Resolver: b},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, _, err := s.Resolve(context.Background(), testQuery("ev.a.com.")); err != nil {
		t.Fatal(err)
	}
	// Trip the winner's breaker out of band (e.g. its own policy stack
	// saw failures elsewhere).
	brkA.Failure()
	if brkA.State() != resolver.BreakerOpen {
		t.Fatal("breaker not open after threshold failures")
	}
	aCalls := a.calls.Load()
	resp, _, err := s.Resolve(context.Background(), testQuery("ev2.a.com."))
	if err != nil || resp == nil {
		t.Fatalf("query after breaker open: resp=%v err=%v", resp, err)
	}
	st := s.Stats()
	if st.Evictions != 1 || st.RacesBreakerOpen != 1 {
		t.Errorf("evictions=%d racesBreakerOpen=%d, want 1/1 (stats: %+v)", st.Evictions, st.RacesBreakerOpen, st)
	}
	if a.calls.Load() != aCalls {
		t.Error("evicted winner was still queried — eviction must not route through the dead transport")
	}
	if st.WinsByCandidate[1] != 1 {
		t.Errorf("fallback candidate should have won: wins=%v", st.WinsByCandidate)
	}
}

func TestDecayReRaces(t *testing.T) {
	var clock atomic.Int64
	a := &stubCand{delay: time.Millisecond}
	b := &stubCand{delay: 5 * time.Millisecond}
	s, err := New(Config{
		SmartOptions: resolver.SmartOptions{
			Stagger:       time.Millisecond,
			ProbeInterval: -1,
			ReRaceAfter:   time.Minute,
		},
		Candidates: []Candidate{
			{Kind: resolver.Do53, Resolver: a},
			{Kind: resolver.DoH, Resolver: b},
		},
		NowNanos: func() int64 { return clock.Load() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, _, err := s.Resolve(context.Background(), testQuery("d1.a.com.")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Resolve(context.Background(), testQuery("d2.a.com.")); err != nil {
		t.Fatal(err)
	}
	clock.Add(int64(2 * time.Minute))
	if _, _, err := s.Resolve(context.Background(), testQuery("d3.a.com.")); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.RacesExpired != 1 {
		t.Errorf("RacesExpired = %d, want 1 (stats: %+v)", st.RacesExpired, st)
	}
	if st.Remembered != 1 {
		t.Errorf("Remembered = %d, want 1", st.Remembered)
	}
}

func TestProbeSwitchesWinner(t *testing.T) {
	// a wins the race on wall clock but reports a slow modeled latency;
	// the background probes then find b decisively faster and switch
	// the winner without any query paying for the discovery — once b's
	// score rests on minProbeSamples probes.
	a := &stubCand{delay: time.Millisecond, total: 100 * time.Millisecond}
	b := &stubCand{delay: 10 * time.Millisecond, total: 10 * time.Millisecond}
	s, err := New(Config{
		SmartOptions: resolver.SmartOptions{
			Stagger:       2 * time.Millisecond,
			ProbeInterval: time.Nanosecond,
		},
		Candidates: []Candidate{
			{Kind: resolver.Do53, Resolver: a},
			{Kind: resolver.DoQ, Resolver: b},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Resolve(context.Background(), testQuery("p1.a.com.")); err != nil {
		t.Fatal(err)
	}
	// Each remembered hit triggers one probe of the loser.
	for i := 1; i <= minProbeSamples; i++ {
		if _, _, err := s.Resolve(context.Background(), testQuery("p2.a.com.")); err != nil {
			t.Fatal(err)
		}
		s.wg.Wait() // the probe this query launched
		want := int64(0)
		if i == minProbeSamples {
			want = 1
		}
		if st := s.Stats(); st.Probes != int64(i) || st.Switches != want {
			t.Fatalf("after probe %d: Probes = %d, Switches = %d, want %d, %d (stats: %+v)",
				i, st.Probes, st.Switches, i, want, st)
		}
	}
	s.Close()
	// The switched-to winner now serves queries.
	before := b.calls.Load()
	if _, _, err := s.Resolve(context.Background(), testQuery("p3.a.com.")); err != nil {
		t.Fatal(err)
	}
	if b.calls.Load() != before+1 {
		t.Error("probe switch did not take effect on the next query")
	}
}

func TestOneSlowSampleDoesNotFlipTheWinner(t *testing.T) {
	// On smart's own clock, probes come due only when the test moves
	// it. One inflated sample from the incumbent followed by one fast
	// probe must not hand the slot over; three consistently faster
	// probes must.
	var clock atomic.Int64
	const interval = time.Second
	inc := &stubCand{total: 20 * time.Millisecond}
	loser := &stubCand{delay: time.Hour, total: 10 * time.Millisecond}
	s, err := New(Config{
		SmartOptions: resolver.SmartOptions{
			Stagger:       time.Hour, // the race never launches the loser
			ProbeInterval: interval,
			ReRaceAfter:   -1,
		},
		Candidates: []Candidate{
			{Kind: resolver.DoT, Resolver: inc},
			{Kind: resolver.DoH, Resolver: loser},
		},
		NowNanos: clock.Load,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	query := func() {
		t.Helper()
		if _, _, err := s.Resolve(context.Background(), testQuery("flip.a.com.")); err != nil {
			t.Fatal(err)
		}
		s.wg.Wait() // any probe the query launched
	}
	query() // the race: the incumbent wins, scored at 20 ms
	loser.delay = 0

	// One slow incumbent sample (20 -> 74 ms), and the same query's
	// probe scores the loser at 10 ms: far inside the margin, but one
	// sample.
	inc.total = 200 * time.Millisecond
	clock.Add(int64(interval))
	query()
	inc.total = 20 * time.Millisecond
	if st := s.Stats(); st.Probes != 1 || st.Switches != 0 {
		t.Fatalf("after one slow sample and one probe: Probes = %d, Switches = %d, want 1, 0",
			st.Probes, st.Switches)
	}

	for probe := 2; probe <= minProbeSamples; probe++ {
		clock.Add(int64(interval))
		query()
		want := int64(0)
		if probe == minProbeSamples {
			want = 1
		}
		if st := s.Stats(); st.Probes != int64(probe) || st.Switches != want {
			t.Fatalf("after probe %d: Probes = %d, Switches = %d, want %d, %d",
				probe, st.Probes, st.Switches, probe, want)
		}
	}
	before := loser.calls.Load()
	query()
	if loser.calls.Load() != before+1 {
		t.Error("the switch did not take effect on the next query")
	}
}

func TestTableFullStillResolves(t *testing.T) {
	a := &stubCand{}
	b := &stubCand{delay: 5 * time.Millisecond}
	s, err := New(Config{
		SmartOptions: resolver.SmartOptions{
			Stagger:       time.Millisecond,
			ProbeInterval: -1,
		},
		Candidates: []Candidate{
			{Kind: resolver.Do53, Resolver: a},
			{Kind: resolver.DoH, Resolver: b},
		},
		KeyFunc: func(q *dnswire.Message) string { return string(q.Questions[0].Name) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Fill every shard: once maxDestinations are remembered, no shard
	// has room for another.
	var races int64
	for i := 0; s.Stats().Destinations < maxDestinations; i++ {
		if i == 4*maxDestinations {
			t.Fatalf("table holds %d destinations after %d names, want %d",
				s.Stats().Destinations, i, maxDestinations)
		}
		if _, _, err := s.Resolve(context.Background(), testQuery(fmt.Sprintf("d%d.a.com.", i))); err != nil {
			t.Fatal(err)
		}
		races++
	}
	// A further destination exceeds the cap: resolved, never remembered.
	for i := 0; i < 3; i++ {
		if _, _, err := s.Resolve(context.Background(), testQuery("two.a.com.")); err != nil {
			t.Fatalf("over-cap destination query %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Destinations != maxDestinations {
		t.Errorf("Destinations = %d, want %d (cap)", st.Destinations, maxDestinations)
	}
	if st.RacesFirst != races+3 {
		t.Errorf("RacesFirst = %d, want %d (%d + 3 unremembered)", st.RacesFirst, races+3, races)
	}
	// A remembered destination still steady-states.
	if _, _, err := s.Resolve(context.Background(), testQuery("d0.a.com.")); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Remembered; got != 1 {
		t.Errorf("Remembered = %d, want 1", got)
	}
}

func TestAllCandidatesFailing(t *testing.T) {
	a := &stubCand{}
	b := &stubCand{}
	a.fail.Store(true)
	b.fail.Store(true)
	s, err := New(Config{
		SmartOptions: resolver.SmartOptions{Stagger: time.Millisecond, ProbeInterval: -1},
		Candidates: []Candidate{
			{Kind: resolver.Do53, Resolver: a},
			{Kind: resolver.DoH, Resolver: b},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, _, err = s.Resolve(context.Background(), testQuery("ff.a.com."))
	if !errors.Is(err, errStub) {
		t.Fatalf("err = %v, want the first candidate failure", err)
	}
	st := s.Stats()
	if st.RaceFailures != 1 {
		t.Errorf("RaceFailures = %d, want 1", st.RaceFailures)
	}
}

// TestAbandonedQueriesSettle: a caller whose context ends during the
// remembered winner's exchange, and one whose context ends before any
// candidate of a race answers, each settle on the right side of the
// identity they leave open, once: Identities read all zeros afterwards.
func TestAbandonedQueriesSettle(t *testing.T) {
	for _, tc := range []struct {
		name       string
		remembered bool // a first query elects a winner before the caller gives up
	}{
		{"during the remembered winner's exchange", true},
		{"during a race nobody won", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var hang atomic.Bool
			stall := resolver.Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, resolver.Timing, error) {
				if hang.Load() {
					<-ctx.Done()
					return nil, resolver.Timing{Attempts: 1}, ctx.Err()
				}
				return q.Reply(), resolver.Timing{Attempts: 1}, nil
			})
			reg := obs.NewRegistry()
			s, err := New(Config{
				SmartOptions: resolver.SmartOptions{Stagger: time.Millisecond, ProbeInterval: -1},
				Candidates: []Candidate{
					{Kind: resolver.Do53, Resolver: stall},
					{Kind: resolver.DoH, Resolver: stall},
				},
				Registry: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if tc.remembered {
				if _, _, err := s.Resolve(context.Background(), testQuery("ab.a.com.")); err != nil {
					t.Fatal(err)
				}
			}
			hang.Store(true)
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			if _, _, err := s.Resolve(ctx, testQuery("ab.a.com.")); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want the caller's deadline", err)
			}
			for i, diff := range obs.Check(reg, Identities) {
				if diff != 0 {
					t.Errorf("%s: left - right = %d in %v", Identities[i].Name, diff, counters(reg))
				}
			}
		})
	}
}

func TestMetricsMatchStats(t *testing.T) {
	reg := obs.NewRegistry()
	a := &stubCand{delay: time.Millisecond}
	b := &stubCand{delay: 3 * time.Millisecond}
	s, err := New(Config{
		SmartOptions: resolver.SmartOptions{Stagger: time.Millisecond, ProbeInterval: -1},
		Candidates: []Candidate{
			{Kind: resolver.Do53, Resolver: a},
			{Kind: resolver.DoH, Resolver: b},
		},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 4; i++ {
		if _, _, err := s.Resolve(context.Background(), testQuery("m.a.com.")); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	c := counters(reg)
	checks := map[string]int64{
		"smart_queries_total":           st.Queries,
		"smart_remembered_total":        st.Remembered,
		"smart_race_first_total":        st.RacesFirst,
		"smart_race_expired_total":      st.RacesExpired,
		"smart_race_winner_fail_total":  st.RacesWinnerFail,
		"smart_race_breaker_open_total": st.RacesBreakerOpen,
		"smart_race_fail_total":         st.RaceFailures,
		"smart_win_do53_total":          st.WinsByCandidate[0],
		"smart_win_doh_total":           st.WinsByCandidate[1],
	}
	for name, want := range checks {
		if got, ok := c[name]; !ok || got != want {
			t.Errorf("%s = %d, stats say %d", name, got, want)
		}
	}
	if st.Races != 1 || st.Remembered != 3 {
		t.Errorf("races=%d remembered=%d, want 1/3", st.Races, st.Remembered)
	}
}

// counters returns reg's counters by name.
func counters(reg *obs.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, c := range reg.Snapshot().Counters {
		out[c.Name] = c.Value
	}
	return out
}
