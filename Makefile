GO ?= go

.PHONY: build test verify bench e2e

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify runs the full tier-1 gate list from ROADMAP.md: build, vet,
# all tests, race gates, the three short-mode soaks (chaos, serve,
# overload), the campaign's timeline oracle, and the zero-allocation,
# allocation-budget + bench smokes.
verify:
	./scripts/verify.sh

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
