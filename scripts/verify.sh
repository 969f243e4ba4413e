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
go test ./...

step "race gates (concurrency-heavy packages)"
go test -race ./internal/cache/... ./internal/resolver/... \
	./internal/campaign/... ./internal/proxynet/... ./internal/obs/... \
	./internal/checkpoint/...
go test -race ./internal/serve/...
go test -race ./internal/smart/...
go test -race ./internal/dohclient/... ./internal/dohserver/...
# The lazy deadline's semantics ride these: it fires for a parked handler
# and a forced shutdown reaches one (serve), an attempt timeout bounds a
# silent Do53/DoT upstream (resolver), nothing stays armed after Stop
# (deadline), a late DoT reply cannot poison the next query (dot).
go test -race ./internal/deadline/... ./internal/recursive/... ./internal/dot/...

step "DoH exchange allocation budgets (client engine, server handler) + resolve bound"
go test ./internal/dohclient/ -run 'TestWarmExchangeAllocBudget|TestRawQueryAllocs'
go test ./internal/dohserver/ -run 'TestServeHTTPAllocBudget|TestResolveBoundFires'

step "miss-path allocation gates (lazy deadline, batch I/O, message path, cache, recursive miss)"
go test ./internal/deadline/ -run 'TestLazyUnarmedAnswersWithoutTimer'
go test ./internal/serve/ -run 'TestQueryTimeoutAllocationFree'
go test ./internal/serve/batchio/ -run 'TestBatchAllocationFree'
go test ./internal/resolver/ -run 'TestWithTimeoutUnarmedAllocBudget'
go test ./internal/dnswire/ \
	-run 'TestUnpackReplyAllocBudget|TestQueryAndReplyAreOneAllocation|TestAppendPackLimit'
go test ./internal/cache/ -run 'TestPutAllocatesTheEntryOnly|TestDoAloneAllocatesTheFlightOnly|TestLookupCopyIsTheCallersOwn'
go test ./internal/recursive/ -run 'TestResolveMissAllocBudget|TestResolveHitAllocBudget'
go test ./internal/authserver/ -run 'TestQueryLogGrowsInTwoSteps'

step "one singleflight, one lifecycle (the recursor's shared flights are the cache's, its TCP side answers what UDP truncates, the DoH front's lifecycle)"
go test -race ./internal/recursive/ -run 'TestSharedFlightIsCounted|TestRecursorAnswersOverTCP'
go test -race ./internal/dohserver/ -run 'TestServerLifecycle|TestServerShutdownForcesOnExpiry'

step "campaign inner loop (timeline oracle, transport table, PoP assignment, allocation gates, pinned export, catalogue sharing under race)"
go test ./internal/proxynet/ \
	-run 'TestMeasureDoHMatchesEventTimeline|TestMeasureAllocationFree|TestExitNodeCachesRouteMeans|TestMeasureSessionRows|TestTLS12AddsARoundTrip'
go test ./internal/anycast/ -run 'TestAssignMatchesAssignPoPAndNearestPoP'
go test ./internal/campaign/ -run 'TestCampaignAllocBudget|TestExportHashPinned'
go test -race ./internal/anycast/...

step "smart racing soak (short, race, chaos faults + exact accounting)"
go test -race -run TestSmartSoak -short ./internal/smart/

step "smart 0-alloc remembered-winner gate"
go test ./internal/smart/ -run 'TestRememberedWinnerAllocationFree'

step "chaos soak (short, race)"
go test -race -run TestChaosSoak -short ./internal/campaign/

step "scale-out gates (golden merge + claim partition, race)"
go test -race -run 'TestShardMergeByteIdenticalCSV|TestSmartShardMergeByteIdenticalCSV|TestClaimProtocolPartitionsCountries' \
	./internal/campaign/
go test -race -run 'TestClaimExactlyOneWinner' ./internal/checkpoint/
go test -run 'TestShardedAnalysisIdentical' ./internal/analysis/

step "round-trip bugfix gates"
go test -run 'TestCSVRoundTripDo53OnlyClient|TestReadCSVDuplicateMetadataMismatch|TestWriteCSVGolden' \
	./internal/campaign/

step "serve soak (short, race)"
go test -race -run TestServeSoak -short ./internal/serve/

step "overload soak (short, race) + the one RRL token bucket on a fake clock"
go test -race -run TestOverloadSoak -short ./internal/serve/
go test ./internal/serve/ -run 'TestRRLLimiterBuckets'

step "cache 0-alloc gate"
go test ./internal/cache/ -bench=BenchmarkCacheHit -benchtime=1x \
	-run 'TestWarmHitAllocationFree'

step "wire 0-alloc gate + bench smoke"
go test ./internal/dnswire/ \
	-run 'TestWirePackUnpackAllocationFree|TestQueryAppendPackAllocationFree'
go test ./internal/dnswire/ -bench=BenchmarkWire -benchtime=1x -run '^$'

step "obs 0-alloc bench smoke"
go test ./internal/obs/ -bench=BenchmarkObs -benchtime=1x -run '^$'

step "serve bench smoke"
go test ./internal/serve/ -bench . -benchtime=1x -run '^$'
go test ./internal/authserver/ -bench BenchmarkServePacket -benchtime=1x -run '^$'

printf '\nall tier-1 gates passed\n'
