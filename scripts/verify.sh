#!/bin/sh
# Tier-1 verification: every gate in ROADMAP.md, in one command.
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
# Everything that needs no extra mode runs here and only here: the
# allocation budgets (they skip themselves under -race —
# TestWarmExchangeAllocBudget, TestDoTWarmExchangeAllocBudget,
# TestRawQueryAllocs, TestServeHTTPAllocBudget,
# TestQueryTimeoutAllocationFree, TestBatchAllocationFree,
# TestWithTimeoutUnarmedAllocBudget, TestResolveMissAllocBudget,
# TestDoAloneAllocatesNothing, TestWildcardAnswerAllocBudget,
# TestRememberedWinnerAllocationFree, TestCampaignAllocBudget,
# TestDiscardClientsMemoryFlat (discard mode's kept heap per country),
# TestNameScratchAllocs, TestMeasureAllocationFree,
# TestAnswerHitAllocationFree, TestResolveHitAllocBudget and the
# dnswire, cache and authserver ones), RFC 4592's wildcard examples
# (TestWildcardClosestEncloser), the measurement zone's pinned replies
# (TestMeasurementZoneAnswersPinned), the campaign's timeline oracle
# and transport-table rows, the haversine's bit identity
# (TestSiteDistanceBitIdentical) and the PoP site table against a
# table-less Provider (TestSiteTableMatchesProviderLiteral), the string
# chunks' rollover (TestNameScratchSurvivesChunkRollover), the pinned
# export hash and journal hash (TestJournalHashPinned), a journal record
# of the map-based shape restoring (TestJournalRestoresMapShapedRecord),
# a reused exit node against fresh ones
# (TestSelectExitNodeIntoMatchesFresh), merged records owned by the
# merge (TestMergeOwnsItsRecords), the CSV readers' refusals
# (TestReadersRejectUnknownProvider, TestReadCSVRejectsInvalidNumbers),
# the golden CSV round trips, the campaign sketch's
# quantiles against exact ones (TestSketchQuantilesWithinOneBucket), the
# hit path's parent-path oracle (TestAnswersMatchTheParentPath), the RRL
# bucket test and the fuzz corpora (FuzzHintedDecode's and
# FuzzCSVRoundTrip's among them) and the racing resolver's acceptance
# gate against each fixed transport
# (TestSmartConvergesToPerDestinationBest). The steps below add a mode:
# -race, a -short soak, or a -bench smoke.
go test ./...

step "race gates (concurrency-heavy packages)"
# The resolver gate carries TestStreamClientConformance (the one
# connection discipline, for the DoH engine, dot.Client and ExchangeTCP)
# and TestHedgingOverDoTTakesASecondConnection.
go test -race ./internal/cache/... ./internal/resolver/... \
	./internal/campaign/... ./internal/proxynet/... ./internal/obs/... \
	./internal/checkpoint/... ./internal/anycast/... ./internal/authserver/... \
	./internal/geoip/...
go test -race ./internal/serve/...
go test -race ./internal/smart/...
go test -race ./internal/dohclient/... ./internal/dohserver/...
# The lazy deadline's semantics ride these: it fires for a parked handler
# and a forced shutdown reaches one (serve), an attempt timeout bounds a
# silent Do53/DoT upstream (resolver), nothing stays armed after Stop
# (deadline); and dot.Client's own rules — a late reply cannot poison the
# next query, a silent server costs one timeout and no second connection
# (TestSilentServerCostsOneTimeout), concurrent exchanges take their own
# connections (TestConcurrentExchangesTakeTheirOwnConnections).
go test -race ./internal/deadline/... ./internal/recursive/... ./internal/dot/... \
	./internal/dnsclient/...

step "one singleflight, one lifecycle (the recursor's shared flights are the cache's, its TCP side answers what UDP truncates, the DoH front's lifecycle)"
go test -race ./internal/recursive/ -run 'TestSharedFlightIsCounted|TestRecursorAnswersOverTCP'
go test -race ./internal/dohserver/ -run 'TestServerLifecycle|TestServerShutdownForcesOnExpiry'

step "a miss allocates only what it keeps (a recycled flight keeps its result, a pooled attempt bound is each attempt's own; race)"
go test -race -count=20 ./internal/cache/ -run TestRecycledFlightsKeepTheirResults
go test -race ./internal/resolver/ -run 'TestPooledBoundIsEachAttemptsOwn|TestAttemptTimeoutBoundsSilentUpstream'

step "the hit path (concurrent hits across fronts, one lookup per query, the asker's question, flights without sleeps; race)"
go test -race ./internal/dohserver/ -run \
	'TestConcurrentHitsAcrossFronts|TestFrontsCountOneLookupPerQuery|TestFrontsEchoTheAskersQuestion'
go test -race -count=20 ./internal/recursive/ -run \
	'TestConcurrentMissesCoalesced|TestWaiterContextCancellation|TestSharedFlightEchoesEachWaitersQuestion|TestHitEchoesTheAskersQuestion'

step "smart racing soak (short, race, chaos faults + exact accounting)"
go test -race -run TestSmartSoak -short ./internal/smart/

step "knob-free contracts (race): a switch needs 3 probe samples, smart converges to each destination's best, StreamReadTimeout cuts a slowloris"
go test -race -count=5 ./internal/smart/ -run 'TestOneSlowSampleDoesNotFlipTheWinner|TestProbeSwitchesWinner'
# TestSmartConvergesToPerDestinationBest runs on smart's own clock with no
# sleep: repeated under -race, a hidden wall-clock dependence flakes here.
go test -race -count=5 ./internal/smart/ -run TestSmartConvergesToPerDestinationBest
go test -race ./internal/serve/ -run TestStreamReadTimeoutClosesSlowloris

step "shared world tables (the /24 table against its map-walking oracle on every /24, simulators measuring at once on the shared tables; race)"
go test ./internal/geoip/ -run 'TestSharedTableMatchesOracle|TestAllocatorClampsBlocks'
go test -race -count=10 ./internal/proxynet/ -run TestConcurrentSimulatorsShareWorldTables

step "chaos soak (short, race)"
go test -race -run TestChaosSoak -short ./internal/campaign/

step "scale-out gates (golden merge + claim partition, race)"
go test -race -run 'TestShardMergeByteIdenticalCSV|TestSmartShardMergeByteIdenticalCSV|TestClaimProtocolPartitionsCountries' \
	./internal/campaign/
go test -race -run 'TestClaimExactlyOneWinner' ./internal/checkpoint/

step "serve soak (short, race)"
go test -race -run TestServeSoak -short ./internal/serve/

step "overload soak (short, race)"
go test -race -run TestOverloadSoak -short ./internal/serve/

step "cache 0-alloc gate + bench smoke"
go test ./internal/cache/ -bench=BenchmarkCacheHit -benchtime=1x \
	-run 'TestWarmHitAllocationFree'

step "wire bench smoke"
go test ./internal/dnswire/ -bench=BenchmarkWire -benchtime=1x -run '^$'

step "obs 0-alloc bench smoke"
go test ./internal/obs/ -bench=BenchmarkObs -benchtime=1x -run '^$'

step "serve bench smoke"
go test ./internal/serve/ -bench . -benchtime=1x -run '^$'
go test ./internal/authserver/ -bench BenchmarkServePacket -benchtime=1x -run '^$'

printf '\nall tier-1 gates passed\n'
