#!/bin/sh
# Tier-1 verification: the one list of gates, in one command. A gate is
# written here and nowhere else; the docs, ROADMAP.md and the verify
# skill point at it, and TestGatesNameTests fails when they restate a
# command that adds a mode (-race, -short, -count, -bench) that is not
# one of these lines, word for word.
# Run from the repo root: ./scripts/verify.sh  (or: make verify)
set -eu

step() {
	printf '\n== %s\n' "$*"
}

step "gofmt"
test -z "$(gofmt -l .)" || { gofmt -l .; exit 1; }

step "build"
go build ./...

step "vet"
go vet ./...

step "unit tests (all packages)"
# Every test that needs no extra mode runs here and only here: go test
# ./... runs each Test, Example and Fuzz seed corpus in the tree, so the
# allocation budgets, oracles, pinned hashes, golden round trips and
# corpora need no list (a list would only drift). The steps below add a
# mode: -race, a -short soak, or a -bench smoke.
go test ./...

step "race gates (concurrency-heavy packages)"
# The resolver gate carries the one connection discipline for the four
# wire clients: TestStreamClientConformance (the DoH engine, dot.Client
# and ExchangeTCP), TestDatagramClientConformance (the Do53 client's UDP
# exchange against a raw UDP peer: the context's deadline and cancel as
# its own errors, one Timeout and one datagram for a silent peer, no
# failed socket kept, the per-server socket cap) and
# TestHedgingOverDoTTakesASecondConnection; the cmdconfig gate races
# the commands' forwarder against live loopback candidates (each server
# filing its engine in the registry it is given), drains a server with a
# query in flight and serves the debug listener
# (TestPprofOnlyOnTheDebugListener); the serve gate settles every
# stream frame once (TestAdmissionShedStream).
go test -race ./internal/cache/... ./internal/resolver/... \
	./internal/campaign/... ./internal/proxynet/... ./internal/obs/... \
	./internal/checkpoint/... ./internal/anycast/... ./internal/authserver/... \
	./internal/geoip/... ./internal/cmdconfig/...
go test -race ./internal/serve/...
go test -race ./internal/smart/...
go test -race ./internal/dohclient/... ./internal/dohserver/...
# The lazy deadline's semantics ride these: it fires for a parked handler
# and a forced shutdown reaches one (serve), an attempt timeout bounds a
# silent Do53/DoT upstream (resolver), nothing stays armed after Stop
# (deadline); and dot.Client's own rules — a late reply cannot poison the
# next query, a silent server costs one timeout and no second connection
# (TestSilentServerCostsOneTimeout), concurrent exchanges take their own
# connections (TestConcurrentExchangesTakeTheirOwnConnections); and the
# Do53 client's: a refused pooled socket is redialled once
# (TestRefusedSocketIsRedialledOnce), the RFC 5452 screen
# (TestQueryIgnoresMismatchedID), the deadline as the context's error
# (TestQueryRespectsContextDeadline).
go test -race ./internal/deadline/... ./internal/recursive/... ./internal/dot/... \
	./internal/dnsclient/...

step "a DoH connection's cancellation watcher (two handoffs per exchange; it ends with its connection; race)"
go test -race -count=20 ./internal/dohclient/ -run 'TestEngineCancellation|TestWatchersEndWithTheirConnections'

step "the cold path (allocation budgets repeat)"
# A fresh TCP + TLS 1.3 connection per query, client and server counted
# together: the handshake's signature is the self-signed leaf's.
go test -count=5 ./internal/dohclient/ ./internal/dot/ -run 'TestColdExchangeAllocBudget|TestColdDoTExchangeAllocBudget'

step "one singleflight, one lifecycle (the recursor's shared flights are the cache's, its TCP side answers what UDP truncates; each of the four fronts stops only by Shutdown, which drains, refuses later queries and is idempotent; race)"
go test -race ./internal/recursive/ -run 'TestSharedFlightIsCounted|TestRecursorAnswersOverTCP'
go test -race ./internal/dohserver/ -run 'TestServerLifecycle|TestServerShutdownForcesOnExpiry'
go test -race -count=5 ./internal/authserver/ -run TestServeShutdownLifecycle
go test -race -count=5 ./internal/recursive/ ./internal/dot/ ./internal/dohserver/ -run TestServerLifecycle

step "a miss allocates only what it keeps (a recycled flight keeps its result, a recycled entry its answers and counts, the index's seed moves no eviction and it holds at most two slots per entry, a pooled attempt bound is each attempt's own; race)"
go test -race -count=20 ./internal/cache/ -run TestRecycledFlightsKeepTheirResults
go test -race -count=20 ./internal/cache/ -run 'TestRecycledEntriesKeepTheirAnswers|TestRefreshFailureAfterRecycling'
go test -race -count=20 ./internal/cache/ -run 'TestCacheIsDeterministic|TestCacheFootprint|TestRecycledEntriesKeepTheirAnswers'
go test -race ./internal/resolver/ -run 'TestPooledBoundIsEachAttemptsOwn|TestAttemptTimeoutBoundsSilentUpstream'

step "a message has one owner (cached answers survive pool churn, race; a signal on a server's first line drains it)"
go test -race -count=20 ./internal/recursive/ -run TestCachedAnswersSurvivePoolChurn
go test -race -count=20 ./internal/recursive/ -run 'TestCachedAnswersSurvivePoolChurn|TestForwardedAnswerIsNotCopiedAgain'
go test -count=20 ./cmd/authdns/ ./cmd/recursor/ ./cmd/dohsrv/ -run TestSignalOnTheFirstLineDrains

step "the hit path (concurrent hits across fronts, one lookup per query, the asker's question, flights without sleeps; race)"
go test -race ./internal/dohserver/ -run \
	'TestConcurrentHitsAcrossFronts|TestFrontsCountOneLookupPerQuery|TestFrontsEchoTheAskersQuestion'
go test -race ./internal/resolver/ -run TestWithCacheAnswersEachAskersQuestion
go test -race -count=20 ./internal/recursive/ -run \
	'TestConcurrentMissesCoalesced|TestWaiterContextCancellation|TestSharedFlightEchoesEachWaitersQuestion|TestHitEchoesTheAskersQuestion'
go test -race -count=200 ./internal/recursive/ -run 'TestConcurrentMissesCoalesced|TestWaiterContextCancellation|TestSharedFlightEchoesEachWaitersQuestion'

step "one ledger (every registered name and every name an identity reads is a row of docs/observability.md's table, and back; a policy stack counts attempts and failures once at its entry; race)"
go test -race -run TestMetricCatalogue .
go test -race ./internal/resolver/ -run TestPolicyMetricsWithoutRetry

step "smart racing soak (short, race, chaos faults + smart.Identities exact)"
go test -race -run TestSmartSoak -short ./internal/smart/

step "knob-free contracts (race): a switch needs 3 probe samples, smart converges to each destination's best, StreamReadTimeout cuts a slowloris"
go test -race -count=5 ./internal/smart/ -run 'TestOneSlowSampleDoesNotFlipTheWinner|TestProbeSwitchesWinner'
# TestSmartConvergesToPerDestinationBest runs on smart's own clock with no
# sleep: repeated under -race, a hidden wall-clock dependence flakes here.
go test -race -count=5 ./internal/smart/ -run TestSmartConvergesToPerDestinationBest
go test -race ./internal/serve/ -run TestStreamReadTimeoutClosesSlowloris

step "shared world tables (the /24 table against its map-walking oracle on every /24, simulators measuring at once on the shared tables, a worker's simulator reset between countries as a fresh one; race)"
go test ./internal/geoip/ -run 'TestSharedTableMatchesOracle|TestAllocatorClampsBlocks'
go test -race -count=10 ./internal/proxynet/ -run 'TestConcurrentSimulatorsShareWorldTables|TestResetSimMatchesFresh'

step "chaos soak (short, race)"
go test -race -run TestChaosSoak -short ./internal/campaign/

step "scale-out gates (shards recombined through one journal and through copied journals, shards and overlapping runs sharing one journal, a spoiled record failing its run, workers folding into one registry and carrying their state from country to country; race)"
go test -race -run 'TestShardMergeByteIdenticalCSV|TestSmartShardMergeByteIdenticalCSV|TestMergeSumsAccountingLikeUnsharded|TestShardsShareOneJournal|TestClaimProtocolPartitionsCountries|TestSpoiledJournalRecordFailsTheRun' \
	./internal/campaign/
go test -race -count=10 ./internal/campaign/ -run 'TestCampaignObsDeterministicAcrossParallelism|TestObsHashPinned|TestParallelismDoesNotChangeResults'

step "serve soak (short, race, serve.Identities exact)"
go test -race -run TestServeSoak -short ./internal/serve/

step "overload soak (short, race, serve.Identities exact with every defense firing)"
go test -race -run TestOverloadSoak -short ./internal/serve/

step "cache 0-alloc gate + bench smoke"
go test ./internal/cache/ -bench=BenchmarkCacheHit -benchtime=1x \
	-run 'TestWarmHitAllocationFree'

step "wire bench smoke"
go test ./internal/dnswire/ -bench=BenchmarkWire -benchtime=1x -run '^$'

step "obs 0-alloc bench smoke"
go test ./internal/obs/ -bench=BenchmarkObs -benchtime=1x -run '^$'

step "campaign inner-loop bench smoke"
go test -run '^$' -bench 'BenchmarkMeasure' -benchtime 100000x ./internal/proxynet

step "serve bench smoke"
go test ./internal/serve/ -bench . -benchtime=1x -run '^$'
go test ./internal/authserver/ -bench BenchmarkServePacket -benchtime=1x -run '^$'

printf '\nall tier-1 gates passed\n'
