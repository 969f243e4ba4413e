GO ?= go

.PHONY: build test verify bench e2e loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify runs the full tier-1 gate list from ROADMAP.md: gofmt, build, vet,
# all tests once (allocation budgets, oracles, pinned hashes and golden
# round trips run there), then what adds a mode: race gates, the
# short-mode soaks (smart, chaos, serve, overload) and the bench smokes.
verify:
	./scripts/verify.sh

# loc prints non-test Go lines per package and their total outside
# bench/ (the benchmark's own directory): the figure simplification PRs
# report before and after (24,479 before the one-transport-table PR,
# 24,176 after it; 23,562 after the one-of-each PR, whose other 103
# lines are the event engine, now internal/proxynet/engine_test.go;
# 23,332 after the one-connection-path PR; 23,504 after the hit-path PR,
# 23,112 after the every-knob-has-a-caller PR, 23,207 after the
# precomputed-trig and string-chunk PR, 23,411 after the
# per-provider-table PR, 23,475 after the miss-allocates-what-it-keeps
# PR).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | sed 's|^\./||' | \
		while read f; do echo "$$(dirname $$f) $$(wc -l < $$f)"; done | \
		awk '{n[$$1] += $$2; t += $$2} END {for (p in n) printf "%6d %s\n", n[p], p; printf "%6d total\n", t}' | \
		sort -k2

# e2e runs the end-to-end benchmark declared in BENCHMARK.json: the
# live loopback DNS stack and the full-world campaign, measured rounds
# plus the traced per-layer ladder. Compare two result files with
# `go run ./bench -check A.json B.json`.
e2e:
	$(GO) run ./bench

# bench regenerates the committed benchmark baselines.
bench:
	$(GO) run ./cmd/benchwire -o BENCH_wire.json
	$(GO) run ./cmd/benchserve -o BENCH_serve.json
	$(GO) run ./cmd/benchcampaign -o BENCH_campaign.json
	$(GO) run ./cmd/benchsmart -o BENCH_smart.json
