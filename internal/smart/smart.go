// Package smart implements the composite racing resolver: it wraps N
// candidate transports (Do53/DoH/DoT/DoQ) behind the one Resolver
// interface and minimizes observed latency per destination. The first
// query to a destination races all healthy candidates with staggered
// happy-eyeballs starts (resolver.Race, the loop WithHedgingN runs across
// attempts of one transport, run across transports); the
// winner is remembered in a sharded allocation-free table with EWMA
// latency scoring and time decay, so steady-state queries take the
// single remembered-fastest transport with zero racing overhead.
// Rate-limited singleflight background probes re-measure losing
// candidates and switch the winner when a loser has become decisively
// faster; a candidate whose circuit breaker is open is evicted from
// the winner slot immediately and the query falls back to the
// next-best healthy candidate instead of failing.
//
// The paper's core finding motivates the design: no single transport
// wins everywhere, so the best a client can do is remember which one
// wins *here* and keep checking cheaply.
package smart

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dnswire"
	"repro/internal/obs"
	"repro/internal/resolver"
)

// The resolver's fixed tunings.
const (
	// alpha is the EWMA weight of a new latency sample in a candidate's
	// per-destination score.
	alpha = 0.3
	// probeTimeout bounds each background probe.
	probeTimeout = 5 * time.Second
	// tableShards is the winner table's shard count (a power of two).
	tableShards = 16
	// maxDestinations caps remembered destinations across the table.
	// Beyond the cap, new destinations still resolve — every query
	// races — but are not remembered.
	maxDestinations = 4096
	// minProbeSamples is how many background probe samples a losing
	// candidate's score must rest on before it may displace the
	// winner: one inflated sample from the incumbent is not evidence
	// that a loser is faster.
	minProbeSamples = 3
)

// Candidate is one transport entered into the race.
type Candidate struct {
	// Kind labels the transport in metrics and stats.
	Kind resolver.Kind
	// Resolver is the candidate's (policy-wrapped) transport stack.
	Resolver resolver.Resolver
	// Breaker, when non-nil, is the candidate's health signal: an open
	// breaker excludes the candidate from races and evicts it from any
	// winner slot it holds. Typically the same breaker instance wired
	// into the candidate's own policy stack.
	Breaker *resolver.Breaker
}

// Config assembles a smart resolver.
type Config struct {
	// SmartOptions are the racing/memory knobs; zero fields take the
	// defaults documented on resolver.SmartOptions.
	resolver.SmartOptions
	// Candidates are the transports to race, in preference order for
	// the first race (ties and unknown scores launch in this order).
	// At least two are required, of different kinds.
	Candidates []Candidate
	// KeyFunc maps a query to its destination key — the unit of winner
	// memory. Nil treats every query as one destination (right for a
	// fixed upstream set); a per-zone or per-country key fn gives the
	// table its per-destination meaning. Must not allocate if the
	// remembered-winner path is to stay allocation-free (substring
	// extraction is fine).
	KeyFunc func(q *dnswire.Message) string
	// Registry, when non-nil, holds the racer's counters under the
	// smart_* names that Stats reads (docs/resolver.md). Nil uses a
	// private registry. A name is one count: two racers filed in one
	// registry share their Stats.
	Registry *obs.Registry
	// NowNanos is the clock used for decay and probe pacing
	// (UnixNano); nil uses the wall clock. Test hook.
	NowNanos func() int64
}

// raceCause says why a query had to race. The causes partition Races
// exactly; the soak asserts the balance.
type raceCause int

const (
	causeFirst       raceCause = iota // no remembered winner (or table full)
	causeExpired                      // winner memory older than ReRaceAfter
	causeWinnerFail                   // remembered winner failed the query inline
	causeBreakerOpen                  // winner evicted because its breaker opened
	numCauses
)

// raceCounters names each cause's counter.
var raceCounters = [numCauses]string{"smart_race_first_total", "smart_race_expired_total",
	"smart_race_winner_fail_total", "smart_race_breaker_open_total"}

// winCounter names the counter of kind's race wins.
func winCounter(k resolver.Kind) string { return "smart_win_" + string(k) + "_total" }

// Identities are the racer's accounting identities, exact at
// quiescence (no query or probe in flight): every query took the
// remembered winner, was abandoned by its caller during the winner's
// exchange, or raced for one cause; and every race crowned a winner,
// failed, or was abandoned by its caller with no winner.
var Identities = func() []obs.Identity {
	races, settled := raceCounters[:], []string{"smart_race_fail_total", "smart_race_abandoned_total"}
	for _, k := range resolver.Kinds() {
		settled = append(settled, winCounter(k))
	}
	return []obs.Identity{
		{Name: "smart_queries", Left: []string{"smart_queries_total"}, Right: append([]string{"smart_remembered_total", "smart_abandoned_total"}, races...)},
		{Name: "smart_races", Left: races, Right: settled},
	}
}()

// Stats is a point-in-time snapshot of the resolver's accounting, read
// from the registry counters named beside each field, which Identities
// relate.
type Stats struct {
	// Queries counts Resolve calls (smart_queries_total).
	Queries int64
	// Remembered counts queries answered by the remembered winner
	// without racing, the zero-overhead steady state
	// (smart_remembered_total).
	Remembered int64
	// Races counts queries that raced candidates: the sum of its causes,
	// smart_race_{first,expired,winner_fail,breaker_open}_total.
	Races            int64
	RacesFirst       int64
	RacesExpired     int64
	RacesWinnerFail  int64
	RacesBreakerOpen int64
	// RaceFailures counts races every candidate lost, so the query
	// failed (smart_race_fail_total).
	RaceFailures int64
	// WinsByCandidate counts race wins per candidate, in Config order
	// (smart_win_<kind>_total).
	WinsByCandidate []int64
	// Probes counts background probes launched (smart_probe_total).
	Probes int64
	// ProbeFailures counts probes that errored (smart_probe_fail_total).
	ProbeFailures int64
	// Switches counts winner changes by a probe or a race electing a
	// different candidate than the remembered one (smart_switch_total).
	Switches int64
	// Evictions counts winners evicted because their breaker opened
	// (smart_fallback_total).
	Evictions int64
	// Destinations is the remembered-destination count, which the
	// smart_destinations gauge publishes as of the last insert.
	Destinations int64
}

// Resolver is the smart composite resolver. Safe for concurrent use.
// Close releases the background probes; queries after Close still
// resolve but launch no new probes.
type Resolver struct {
	cands []Candidate
	opts  resolver.SmartOptions
	keyFn func(q *dnswire.Message) string
	now   func() int64
	tbl   *table

	// The racer's ledger: one obs handle per count, which Stats reads
	// (the two abandon counts only settle Identities).
	queries, remembered, raceFails          *obs.Counter
	abandoned, raceAbandoned                *obs.Counter
	races                                   [numCauses]*obs.Counter
	wins                                    []*obs.Counter // per candidate
	probes, probeFails, switches, evictions *obs.Counter
	winnerAge                               *obs.Histogram
	destinations                            *obs.Gauge

	wg     sync.WaitGroup
	closed atomic.Bool
}

// New builds a smart resolver over cfg.Candidates.
func New(cfg Config) (*Resolver, error) {
	if len(cfg.Candidates) < 2 {
		return nil, fmt.Errorf("smart: need at least 2 candidates, got %d", len(cfg.Candidates))
	}
	o := cfg.SmartOptions
	if o.Stagger <= 0 {
		o.Stagger = 30 * time.Millisecond
	}
	if o.ReRaceAfter == 0 {
		o.ReRaceAfter = 5 * time.Minute
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = 15 * time.Second
	}
	if o.SwitchMargin <= 0 || o.SwitchMargin > 1 {
		o.SwitchMargin = 0.9
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	now := cfg.NowNanos
	if now == nil {
		now = func() int64 { return time.Now().UnixNano() }
	}
	s := &Resolver{
		cands: append([]Candidate(nil), cfg.Candidates...),
		opts:  o,
		keyFn: cfg.KeyFunc,
		now:   now,
		tbl:   newTable(),

		queries:       reg.Counter("smart_queries_total"),
		remembered:    reg.Counter("smart_remembered_total"),
		raceFails:     reg.Counter("smart_race_fail_total"),
		abandoned:     reg.Counter("smart_abandoned_total"),
		raceAbandoned: reg.Counter("smart_race_abandoned_total"),
		probes:        reg.Counter("smart_probe_total"),
		probeFails:    reg.Counter("smart_probe_fail_total"),
		switches:      reg.Counter("smart_switch_total"),
		evictions:     reg.Counter("smart_fallback_total"),
		winnerAge:     reg.Histogram("smart_winner_age_ms", nil),
		destinations:  reg.Gauge("smart_destinations"),
	}
	for c, name := range raceCounters {
		s.races[c] = reg.Counter(name)
	}
	// A kind's win counter is one count, so a kind races once.
	for i, c := range s.cands {
		for _, prev := range s.cands[:i] {
			if prev.Kind == c.Kind {
				return nil, fmt.Errorf("smart: two candidates of kind %q", c.Kind)
			}
		}
		s.wins = append(s.wins, reg.Counter(winCounter(c.Kind)))
	}
	return s, nil
}

// Close stops launching background probes and waits for in-flight
// probes to drain.
func (s *Resolver) Close() {
	s.closed.Store(true)
	s.wg.Wait()
}

// Stats snapshots the accounting counters.
func (s *Resolver) Stats() Stats {
	st := Stats{
		Queries:          s.queries.Value(),
		Remembered:       s.remembered.Value(),
		RacesFirst:       s.races[causeFirst].Value(),
		RacesExpired:     s.races[causeExpired].Value(),
		RacesWinnerFail:  s.races[causeWinnerFail].Value(),
		RacesBreakerOpen: s.races[causeBreakerOpen].Value(),
		RaceFailures:     s.raceFails.Value(),
		Probes:           s.probes.Value(),
		ProbeFailures:    s.probeFails.Value(),
		Switches:         s.switches.Value(),
		Evictions:        s.evictions.Value(),
		Destinations:     s.tbl.len(),
		WinsByCandidate:  make([]int64, len(s.wins)),
	}
	st.Races = st.RacesFirst + st.RacesExpired + st.RacesWinnerFail + st.RacesBreakerOpen
	for i, w := range s.wins {
		st.WinsByCandidate[i] = w.Value()
	}
	return st
}

// WinsByKind aggregates WinsByCandidate per transport kind.
func (s *Resolver) WinsByKind() map[resolver.Kind]int64 {
	out := make(map[resolver.Kind]int64, len(s.cands))
	for i, c := range s.cands {
		out[c.Kind] = s.wins[i].Value()
	}
	return out
}

// key extracts the destination key for q.
func (s *Resolver) key(q *dnswire.Message) string {
	if s.keyFn == nil {
		return ""
	}
	return s.keyFn(q)
}

// healthy reports whether candidate i may be raced or kept as winner.
func (s *Resolver) healthy(i int) bool {
	b := s.cands[i].Breaker
	return b == nil || b.State() != resolver.BreakerOpen
}

// latencyMicros converts an attempt's outcome into the EWMA sample:
// the transport's reported Timing.Total when it carries one (simulated
// transports report modeled time there), else the measured wall time.
func latencyMicros(t resolver.Timing, elapsed time.Duration) int64 {
	d := t.Total
	if d <= 0 {
		d = elapsed
	}
	return int64(d / time.Microsecond)
}

// Resolve implements resolver.Resolver. Steady state — a remembered,
// healthy, unexpired winner — is one table lookup plus the winner's
// own Resolve; every other state funnels into a race.
func (s *Resolver) Resolve(ctx context.Context, q *dnswire.Message) (*dnswire.Message, resolver.Timing, error) {
	s.queries.Inc()
	key := s.key(q)
	e := s.tbl.get(key)
	if e == nil {
		e = s.tbl.insert(key, len(s.cands))
		if e != nil {
			s.destinations.Set(float64(s.tbl.len()))
		}
		return s.race(ctx, q, e, causeFirst, -1)
	}
	w := int(e.winner.Load())
	if w < 0 {
		// Entry exists (a concurrent first query inserted it) but no
		// race has finished yet.
		return s.race(ctx, q, e, causeFirst, -1)
	}
	if s.expired(e) {
		e.winner.CompareAndSwap(int32(w), -1)
		return s.race(ctx, q, e, causeExpired, -1)
	}
	if !s.healthy(w) {
		// Breaker open: evict immediately and fall back to the
		// next-best healthy candidate (the race below launches in EWMA
		// order, so the next-best goes first).
		if e.winner.CompareAndSwap(int32(w), -1) {
			s.evictions.Inc()
			s.observeWinnerAge(e)
		}
		return s.race(ctx, q, e, causeBreakerOpen, w)
	}
	start := time.Now()
	resp, t, err := s.cands[w].Resolver.Resolve(ctx, q)
	s.feedBreaker(ctx, w, err)
	if err == nil {
		s.remembered.Inc()
		e.observeEwma(w, latencyMicros(t, time.Since(start)), alpha)
		s.maybeProbe(e, w, q)
		return resp, t, nil
	}
	if ctx.Err() != nil {
		// The caller's context died, not the transport: no re-race.
		s.abandoned.Inc()
		return nil, t, err
	}
	// The remembered winner failed the query itself: demote it for
	// this query and race the others.
	return s.race(ctx, q, e, causeWinnerFail, w)
}

// expired reports whether e's winner memory is past the decay horizon.
func (s *Resolver) expired(e *entry) bool {
	if s.opts.ReRaceAfter < 0 {
		return false
	}
	return s.now()-e.wonAt.Load() > int64(s.opts.ReRaceAfter)
}

// observeWinnerAge records how long the outgoing winner held the slot.
func (s *Resolver) observeWinnerAge(e *entry) {
	age := s.now() - e.wonAt.Load()
	if age < 0 {
		age = 0
	}
	s.winnerAge.Observe(time.Duration(age))
}

// feedBreaker reports an attempt outcome to candidate i's breaker.
// Cancellations caused by the surrounding context (a lost race, a dead
// caller) are not the transport's fault and feed nothing.
func (s *Resolver) feedBreaker(ctx context.Context, i int, err error) {
	b := s.cands[i].Breaker
	if b == nil {
		return
	}
	if err == nil {
		b.Success()
		return
	}
	if ctx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return
	}
	b.Failure()
}

// raceOrder returns the candidate launch order: healthy candidates
// sorted by EWMA score ascending (unknown scores last, in Config
// order), excluding skip when at least one alternative exists. With
// every candidate unhealthy the full set races anyway — a guess beats
// a guaranteed failure.
func (s *Resolver) raceOrder(e *entry, skip int) []int {
	order := make([]int, 0, len(s.cands))
	for i := range s.cands {
		if i == skip || !s.healthy(i) {
			continue
		}
		order = append(order, i)
	}
	if len(order) == 0 {
		for i := range s.cands {
			if i == skip {
				continue
			}
			order = append(order, i)
		}
	}
	if len(order) == 0 {
		order = append(order, skip)
	}
	if e != nil {
		// Insertion sort by score; unknown (0) sorts last. Stable, so
		// equal/unknown scores keep Config preference order.
		score := func(i int) int64 {
			v := e.loadEwma(i)
			if v == 0 {
				return int64(^uint64(0) >> 1)
			}
			return v
		}
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && score(order[j]) < score(order[j-1]); j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
	}
	return order
}

// Launch is one candidate as the race rule sees it: how long its first
// query takes from its own launch, and how long a query takes on the
// connection that leaves behind. Any unit, the stagger's.
type Launch struct{ First, Reused float64 }

// RaceOutcome is the rule race implements with goroutines and timers,
// as a pure function — what the campaign derives its smart column with
// and the tests of race take their expected winner from. Candidates
// launch in slice order, stagger apart, so slot i arrives at
// i*stagger + First; the lowest arrival wins, a tie going to the earlier
// launch. It returns the winner's slot (-1 for no candidates), its
// arrival (the race's first-query time) and its Reused (every later
// query goes to the remembered winner alone).
func RaceOutcome(stagger float64, launches []Launch) (winner int, first, steady float64) {
	winner = -1
	for slot, l := range launches {
		arrival := float64(slot)*stagger + l.First
		if winner < 0 || arrival < first {
			winner, first, steady = slot, arrival, l.Reused
		}
	}
	return winner, first, steady
}

// race runs the staggered happy-eyeballs race over the candidates
// (resolver.Race, the loop WithHedgingN runs over attempts of one
// transport) and remembers the winner. e may be nil (table full): the
// race still resolves, it just isn't remembered. skip names a candidate
// excluded from this race (the just-failed or just-evicted winner), -1
// for none.
func (s *Resolver) race(ctx context.Context, q *dnswire.Message, e *entry, cause raceCause, skip int) (*dnswire.Message, resolver.Timing, error) {
	s.races[cause].Inc()
	order := s.raceOrder(e, skip)
	resp, t, slot, _, err := resolver.Race(ctx, len(order), s.opts.Stagger,
		func(ctx context.Context, slot int) (*dnswire.Message, resolver.Timing, error) {
			idx := order[slot]
			start := time.Now()
			resp, t, err := s.cands[idx].Resolver.Resolve(ctx, q)
			s.feedBreaker(ctx, idx, err)
			if err == nil && e != nil {
				e.observeEwma(idx, latencyMicros(t, time.Since(start)), alpha)
			}
			return resp, t, err
		})
	switch {
	case slot >= 0:
		s.won(e, order[slot], cause)
	case ctx.Err() == nil:
		// Every candidate lost; a caller that gave up is not a failed race.
		s.raceFails.Inc()
	default:
		s.raceAbandoned.Inc()
	}
	return resp, t, err
}

// won records a race winner: per-candidate win counters, the winner
// slot, and switch accounting when the slot changes hands.
func (s *Resolver) won(e *entry, idx int, cause raceCause) {
	s.wins[idx].Inc()
	if e == nil {
		return
	}
	prev := e.winner.Swap(int32(idx))
	if prev >= 0 && int(prev) != idx {
		s.switches.Inc()
		s.observeWinnerAge(e)
	}
	e.wonAt.Store(s.now())
}

// maybeProbe launches a rate-limited background probe of a losing
// candidate for this destination. The fast path — interval not yet
// elapsed — is two atomic loads; the launch itself is singleflight per
// destination and survives until its own timeout, detached from the
// triggering query's context.
func (s *Resolver) maybeProbe(e *entry, winner int, q *dnswire.Message) {
	if s.opts.ProbeInterval < 0 || e == nil || len(s.cands) < 2 {
		return
	}
	now := s.now()
	last := e.lastProbe.Load()
	if now-last < int64(s.opts.ProbeInterval) {
		return
	}
	if s.closed.Load() {
		return
	}
	if !e.lastProbe.CompareAndSwap(last, now) {
		return
	}
	if !e.probing.CompareAndSwap(false, true) {
		return
	}
	idx := s.nextLoser(e, winner)
	if idx < 0 || len(q.Questions) == 0 {
		e.probing.Store(false)
		return
	}
	probeQ := resolver.Query(q.Questions[0].Name, q.Questions[0].Type)
	s.wg.Add(1)
	go s.probe(e, idx, probeQ)
}

// nextLoser picks the losing candidate the next probe measures:
// round-robin over the healthy non-winner candidates.
func (s *Resolver) nextLoser(e *entry, winner int) int {
	n := len(s.cands)
	startAt := int(e.probeCursor.Add(1))
	for off := 0; off < n; off++ {
		i := (startAt + off) % n
		if i == winner || !s.healthy(i) {
			continue
		}
		return i
	}
	return -1
}

// probe measures one losing candidate in the background and switches
// the winner when the loser's score now decisively beats the
// incumbent's.
func (s *Resolver) probe(e *entry, idx int, q *dnswire.Message) {
	defer s.wg.Done()
	defer e.probing.Store(false)
	s.probes.Inc()
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	start := time.Now()
	_, t, err := s.cands[idx].Resolver.Resolve(ctx, q)
	s.feedBreaker(ctx, idx, err)
	if err != nil {
		s.probeFails.Inc()
		return
	}
	e.observeEwma(idx, latencyMicros(t, time.Since(start)), alpha)
	e.scores[idx].probes.Add(1)
	s.maybeSwitch(e, idx)
}

// maybeSwitch promotes candidate idx to winner when its score rests on
// at least minProbeSamples probes and beats the incumbent's by the
// hysteresis margin.
func (s *Resolver) maybeSwitch(e *entry, idx int) {
	w := int(e.winner.Load())
	if w < 0 || w == idx || e.scores[idx].probes.Load() < minProbeSamples {
		return
	}
	loser, winner := e.loadEwma(idx), e.loadEwma(w)
	if loser == 0 || winner == 0 {
		return
	}
	if float64(loser) >= float64(winner)*s.opts.SwitchMargin {
		return
	}
	if e.winner.CompareAndSwap(int32(w), int32(idx)) {
		s.switches.Inc()
		s.observeWinnerAge(e)
		e.wonAt.Store(s.now())
	}
}
