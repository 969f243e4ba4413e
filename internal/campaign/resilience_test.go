package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/anycast"
	"repro/internal/cache"
	"repro/internal/dnswire"
	"repro/internal/proxynet"
	"repro/internal/resolver"
)

// soakChaos is the chaos mix the resilience tests run under: high
// enough that every failure mode fires constantly.
var soakChaos = proxynet.Chaos{ExitChurnProb: 0.15, HeaderCorruptProb: 0.15, ConnResetProb: 0.1}

// TestChaosSoak runs a campaign under heavy injected failure with
// breakers armed and asserts the paper's §3.5 contract end to end:
// nothing panics, corrupted measurements become discards (or breaker
// skips), and the accounting balances exactly — every configured run
// lands in precisely one of Successes, Discards, or Skipped. Runs
// under -race in the tier-1 gate (short mode keeps it to 3 countries).
func TestChaosSoak(t *testing.T) {
	countries := []string{"BR", "US", "IT", "NG", "AR", "MX", "ID", "DE"}
	if testing.Short() {
		countries = countries[:3] // still spans Super-Proxy (US) and not
	}
	cfg := smallConfig(countries...)
	cfg.Transports = []resolver.Kind{resolver.Do53, resolver.DoH, resolver.DoT}
	cfg.Chaos = soakChaos
	cfg.Breaker = &resolver.BreakerPolicy{FailureThreshold: 4, ProbeEvery: 6}
	cfg.Parallel = 4
	ds, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	providers := 4 // the full catalogue
	perKindRuns := map[resolver.Kind]int{
		resolver.DoH:  len(ds.Clients) * providers * cfg.RunsPerClient,
		resolver.Do53: len(ds.Clients) * cfg.RunsPerClient,
		resolver.DoT:  len(ds.Clients) * providers * cfg.RunsPerClient,
	}
	for kind, want := range perKindRuns {
		ts := ds.Transports[kind]
		if ts.Queries+ts.Skipped != want {
			t.Errorf("%s: Queries(%d) + Skipped(%d) != configured runs %d",
				kind, ts.Queries, ts.Skipped, want)
		}
		if ts.Queries != ts.Successes+ts.Discards {
			t.Errorf("%s: Queries(%d) != Successes(%d) + Discards(%d)",
				kind, ts.Queries, ts.Successes, ts.Discards)
		}
		if ts.Discards < ts.Blocked {
			t.Errorf("%s: Discards(%d) < Blocked(%d)", kind, ts.Discards, ts.Blocked)
		}
	}

	// The chaos must actually have fired, and every injected fatal
	// corruption must surface as a discard, not silent data.
	var sim proxynet.SimStats
	for _, g := range ds.Obs.Gauges {
		switch g.Name {
		case "campaign_sim_chaos_resets":
			sim.ChaosResets = int64(g.Value)
		case "campaign_sim_chaos_churns":
			sim.ChaosChurns = int64(g.Value)
		case "campaign_sim_chaos_header_corruptions":
			sim.ChaosHeaderCorruptions = int64(g.Value)
		}
	}
	if sim.ChaosResets == 0 || sim.ChaosChurns == 0 || sim.ChaosHeaderCorruptions == 0 {
		t.Errorf("chaos modes did not all fire: %+v", sim)
	}
	if ds.Transports[resolver.DoH].Discards == 0 {
		t.Error("no DoH discards under heavy chaos")
	}

	// Breakers: DoH skips can only come from open breakers, so the
	// short-circuit count must match exactly.
	doh := ds.Breakers[resolver.DoH]
	if doh.Trips == 0 {
		t.Error("no DoH breaker trips under heavy chaos")
	}
	if int64(ds.Transports[resolver.DoH].Skipped) != doh.ShortCircuits {
		t.Errorf("DoH Skipped(%d) != breaker ShortCircuits(%d)",
			ds.Transports[resolver.DoH].Skipped, doh.ShortCircuits)
	}
}

// TestChaosSoakDeterministic pins that a chaos campaign is still a
// pure function of its configuration regardless of parallelism.
func TestChaosSoakDeterministic(t *testing.T) {
	run := func(parallel int) *Dataset {
		cfg := smallConfig("BR", "US", "IT")
		cfg.Chaos = soakChaos
		cfg.Breaker = &resolver.BreakerPolicy{FailureThreshold: 3, ProbeEvery: 5}
		cfg.Parallel = parallel
		ds, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	a, b := run(1), run(8)
	var bufA, bufB bytes.Buffer
	if err := a.WriteCSV(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteCSV(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Error("chaos campaign CSV differs across parallelism")
	}
	if a.Transports[resolver.DoH] != b.Transports[resolver.DoH] {
		t.Errorf("DoH accounting differs: %+v vs %+v",
			a.Transports[resolver.DoH], b.Transports[resolver.DoH])
	}
	if a.Breakers[resolver.DoH] != b.Breakers[resolver.DoH] {
		t.Errorf("DoH breaker stats differ: %+v vs %+v",
			a.Breakers[resolver.DoH], b.Breakers[resolver.DoH])
	}
}

// exportAll renders the dataset exactly as cmd/worldstudy does.
func exportAll(t *testing.T, ds *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("---\n")
	if err := ds.WriteAtlasCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResumeByteIdenticalCSV is the golden resilience test: interrupt
// a checkpointed campaign after two countries, resume it from the
// journal, and require the final CSV to be byte-identical to an
// uninterrupted run.
func TestResumeByteIdenticalCSV(t *testing.T) {
	cfg := smallConfig("BR", "US", "IT", "NG", "AR")
	cfg.Chaos = soakChaos // resume must hold under chaos too
	cfg.Parallel = 1      // deterministic interruption point

	uninterrupted, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := exportAll(t, uninterrupted)

	// Interrupted run: cancel after the second completed country.
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupted := cfg
	interrupted.CheckpointDir = dir
	done := 0
	interrupted.OnCountryDone = func(code string, clients int, resumed bool) {
		if done++; done == 2 {
			cancel()
		}
	}
	partial, err := RunContext(ctx, interrupted)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	if partial == nil || !partial.Partial {
		t.Fatal("interrupted run did not return a partial dataset")
	}
	if len(partial.Clients) == 0 {
		t.Fatal("partial dataset flushed no clients")
	}
	if len(partial.AtlasDo53Ms) != 0 {
		t.Error("partial dataset ran the Atlas remedy")
	}

	// Resume: same configuration, same journal, fresh context.
	resumedCfg := cfg
	resumedCfg.CheckpointDir = dir
	resumedFromJournal := 0
	resumedCfg.OnCountryDone = func(code string, clients int, resumed bool) {
		if resumed {
			resumedFromJournal++
		}
	}
	resumed, err := Run(resumedCfg)
	if err != nil {
		t.Fatal(err)
	}
	if resumedFromJournal < 2 {
		t.Errorf("resume replayed %d countries from the journal, want >= 2", resumedFromJournal)
	}
	if got := exportAll(t, resumed); !bytes.Equal(got, want) {
		t.Error("resumed campaign CSV differs from uninterrupted run")
	}
	if resumed.DiscardedImplausible != uninterrupted.DiscardedImplausible {
		t.Errorf("implausible accounting differs: %d vs %d",
			resumed.DiscardedImplausible, uninterrupted.DiscardedImplausible)
	}
	if resumed.Transports[resolver.DoH] != uninterrupted.Transports[resolver.DoH] {
		t.Errorf("DoH accounting differs after resume: %+v vs %+v",
			resumed.Transports[resolver.DoH], uninterrupted.Transports[resolver.DoH])
	}
}

// TestCheckpointKeyMismatch: a journal written under one configuration
// must be ignored — not replayed — by a campaign with different
// result-affecting parameters.
func TestCheckpointKeyMismatch(t *testing.T) {
	dir := t.TempDir()
	cfgA := smallConfig("BR", "IT")
	cfgA.CheckpointDir = dir
	if _, err := Run(cfgA); err != nil {
		t.Fatal(err)
	}

	cfgB := cfgA
	cfgB.Seed = cfgA.Seed + 1
	resumed := false
	cfgB.OnCountryDone = func(code string, clients int, fromJournal bool) {
		resumed = resumed || fromJournal
	}
	dsB, err := Run(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Error("stale journal (different seed) was replayed")
	}

	// And the records must match a journal-free run of the same seed.
	cfgRef := cfgB
	cfgRef.CheckpointDir = ""
	cfgRef.OnCountryDone = nil
	ref, err := Run(cfgRef)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exportAll(t, dsB), exportAll(t, ref)) {
		t.Error("campaign with mismatched journal differs from clean run")
	}
}

func TestConfigKey(t *testing.T) {
	base := smallConfig("BR")
	base.Transports = DefaultTransports()
	pids := anycast.ProviderIDs()
	key := func(c Config) string { return configKey(c, pids) }

	if key(base) != key(base) {
		t.Error("configKey is not stable")
	}
	// The key this configuration had while ClientRecord journaled its
	// DoT and DoQ results under their own field names: a journal of that
	// shape must be refused, not restored with those results zeroed.
	if key(base) == "5167e4a0e2de49b0" {
		t.Error("a v1 journal's key still matches")
	}
	// Result-affecting knobs must change the key.
	perturbed := map[string]Config{}
	c := base
	c.Seed++
	perturbed["seed"] = c
	c = base
	c.RunsPerClient = 3
	perturbed["runs"] = c
	c = base
	c.ClientScale = 0.5
	perturbed["scale"] = c
	c = base
	c.Chaos = proxynet.Chaos{ExitChurnProb: 0.1}
	perturbed["chaos"] = c
	c = base
	c.Breaker = &resolver.BreakerPolicy{FailureThreshold: 2, ProbeEvery: 3}
	perturbed["breaker"] = c
	for name, pc := range perturbed {
		if key(pc) == key(base) {
			t.Errorf("changing %s did not change the config key", name)
		}
	}
	// Schedule/reporting knobs and the country list must not: that is
	// what lets a journal from a partial run serve the full campaign.
	c = base
	c.Countries = []string{"BR", "IT", "NG"}
	c.Parallel = 7
	c.CheckpointDir = "/elsewhere"
	if key(c) != key(base) {
		t.Error("schedule-only knobs changed the config key")
	}
}

// TestRunContextPreCanceled: a context canceled before the campaign
// starts yields an empty partial dataset and the context error —
// never a hang or a panic.
func TestRunContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ds, err := RunContext(ctx, smallConfig("BR", "IT"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ds == nil || !ds.Partial {
		t.Fatal("pre-canceled run did not return a partial dataset")
	}
	if len(ds.Clients) != 0 {
		t.Errorf("pre-canceled run measured %d clients", len(ds.Clients))
	}
}

// TestChaosSoakServesStale is the serve-stale degradation contract the
// ISSUE-7 acceptance criteria pin: kill the upstream entirely and a
// stale-enabled cache keeps answering expired entries — >=99% of
// queries inside the StaleTTL window come back stale, none error —
// then failures resume honestly once the window lapses. The name
// keeps it inside the tier-1 `-run TestChaosSoak` race gate.
func TestChaosSoakServesStale(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(40000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	dead := atomic.Bool{}
	upstream := resolver.Func(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, resolver.Timing, error) {
		if dead.Load() {
			return nil, resolver.Timing{}, errors.New("upstream killed")
		}
		resp := q.Reply()
		qu := q.Questions[0]
		resp.Answers = append(resp.Answers, dnswire.ResourceRecord{
			Name: qu.Name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60,
			Data: dnswire.ARecord{Addr: netip.MustParseAddr("192.0.2.53")},
		})
		return resp, resolver.Timing{Attempts: 1}, nil
	})
	c := cache.New(cache.Config{MaxEntries: 4096, Clock: clock, StaleTTL: time.Hour})
	r := resolver.WithCache(upstream, c, nil, resolver.DoH)

	const names = 100
	name := func(i int) dnswire.Name {
		return dnswire.NewName(fmt.Sprintf("soak%03d.chaos.example.", i))
	}
	for i := 0; i < names; i++ {
		if _, _, err := r.Resolve(context.Background(), resolver.Query(name(i), dnswire.TypeA)); err != nil {
			t.Fatalf("warm-up %d: %v", i, err)
		}
	}

	// Kill the upstream, expire everything, and hammer concurrently.
	dead.Store(true)
	advance(61 * time.Second)
	workers := 8
	perWorker := 200
	if testing.Short() {
		workers, perWorker = 4, 100
	}
	var queries, staleServed, errored atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				queries.Add(1)
				resp, timing, err := r.Resolve(context.Background(), resolver.Query(name((w+i)%names), dnswire.TypeA))
				if err != nil {
					errored.Add(1)
					continue
				}
				if timing.Stale {
					staleServed.Add(1)
				}
				if len(resp.Answers) != 1 || resp.Answers[0].TTL > 30 {
					t.Error("stale answer malformed or TTL uncapped")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	c.Wait() // drain the (failing) background refreshes

	if errored.Load() != 0 {
		t.Errorf("%d/%d queries errored inside the StaleTTL window, want 0", errored.Load(), queries.Load())
	}
	if ratio := float64(staleServed.Load()) / float64(queries.Load()); ratio < 0.99 {
		t.Errorf("stale ratio %.4f, want >= 0.99", ratio)
	}
	if c.Stats().RefreshFails == 0 {
		t.Error("dead upstream produced no recorded refresh failures")
	}

	// Past the StaleTTL window the cache must stop papering over the
	// outage: errors are surfaced again.
	advance(2 * time.Hour)
	if _, _, err := r.Resolve(context.Background(), resolver.Query(name(0), dnswire.TypeA)); err == nil {
		t.Error("query past StaleTTL should fail, not serve ancient data")
	}
}
