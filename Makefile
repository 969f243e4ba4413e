GO ?= go

.PHONY: build test verify e2e loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify runs scripts/verify.sh, the one tier-1 gate list: gofmt, build, vet,
# all tests once (allocation budgets, oracles, pinned hashes and golden
# round trips run there), then what adds a mode: race gates, the
# short-mode soaks (smart, chaos, serve, overload) and the bench smokes.
verify:
	./scripts/verify.sh

# loc prints non-test Go lines per package and their total outside
# bench/ (the benchmark's own directory): the figure simplification PRs
# report before and after (the per-PR history is in CHANGES.md).
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
