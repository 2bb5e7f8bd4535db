# Tier-1 verification plus the benchmark smokes. `make ci` is what every
# PR must keep green — locally and in .github/workflows/ci.yml.

GO ?= go

.PHONY: ci verify vet build test fmt-check lint cover race fuzz-smoke serve-smoke fingerprint-check perfbench-check perfbench-smoke bench-short fingerprint clean

ci: fmt-check lint verify race fuzz-smoke serve-smoke fingerprint-check perfbench-check perfbench-smoke bench-short

verify: vet build test

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Every tracked Go file must be gofmt-clean.
fmt-check:
	@files=$$(git ls-files '*.go' | xargs gofmt -l); \
	if [ -n "$$files" ]; then \
		echo "gofmt -w needed on:"; echo "$$files"; exit 1; \
	fi

# Project lint suite (internal/lint via cmd/lint): maprange +
# nondetsource police the determinism contract of the fingerprinted
# packages, guardedfield polices the `// guards` mutex convention, and
# allowdirective polices the //repro:allow suppression inventory.
# Nonzero exit on any finding — a hard CI gate, diagnostics go to the
# job log.
lint:
	$(GO) run ./cmd/lint ./...

# Per-package coverage summary over the whole module, plus a hard floor
# for internal/lint: the analyzers' edge cases (embedded structs, method
# values, deferred unlocks, shadowed receivers) must stay covered.
COVER_FLOOR ?= 85
cover:
	$(GO) test -coverprofile=cover.out ./...
	@echo "--- total ---"
	@$(GO) tool cover -func=cover.out | tail -n 1
	@pct=$$($(GO) test -coverprofile=cover.lint.out ./internal/lint | \
		sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
	echo "internal/lint coverage: $$pct% (floor $(COVER_FLOOR)%)"; \
	awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN { exit (p+0 < f) ? 1 : 0 }' || \
		{ echo "FAIL: internal/lint coverage $$pct% is below the $(COVER_FLOOR)% floor"; exit 1; }

# Race-enabled runs of the packages with real concurrency (cast:
# long-lived Scheduler handles plus concurrent clones over one shared
# core; serve: the concurrent decomposition service with its
# singleflight packing cache, free-list handles and bounded-concurrency
# demand execution; obs: histograms, trace rings, and the metrics
# registry are all written concurrently on the serve path), plus the
# invariant harness that gates the packers (check), the spanning-tree
# packers (stp, stpdist) and the simulator with its other drivers (sim,
# cdsdist, dist). Simulator rounds run serially; the simulator and its
# drivers stay in the set because running the Remark 3.1 guesses
# concurrently, an open ROADMAP item, will land in these drivers and is
# then race-checked from its first change.
race:
	$(GO) test -race ./internal/sim ./internal/check ./internal/stp ./internal/stpdist ./internal/cast ./internal/serve ./internal/cdsdist ./internal/dist ./internal/obs

# Serving smoke: cmd/serve -selftest drives the binary's own handler
# (request logging included) over a real HTTP listener — register,
# decompose, broadcast, one streamed batch, and a stats audit. The same
# smoke runs in tier-1 as cmd/serve's TestSmoke.
serve-smoke:
	$(GO) run ./cmd/serve -selftest

# 10-second fuzz smokes of the three parsers of untrusted input. The CSR
# builder: random edge streams with duplicates and self-loops must
# finalize to sorted, deduped, symmetric adjacency with consistent edge
# ids. The snapshot decoder: any file body must decode to an error or to
# a snapshot that re-encodes to exactly its bytes, never panic. The HTTP
# API: any (method, path, body) must answer an API status code, keep the
# pack accounting balanced, and leave the cache able to decompose.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzBuilder$$' -fuzztime 10s ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzSnapDecode$$' -fuzztime 10s ./internal/snap
	$(GO) test -run '^$$' -fuzz '^FuzzHandler$$' -fuzztime 10s ./internal/serve

# Determinism gate: the current build's content-level fingerprint must
# match the committed golden byte for byte (TestFingerprintGolden is the
# same gate inside go test). Regenerate after an intentional behavior
# change with: go test -run TestFingerprintGolden -update .
fingerprint-check:
	$(GO) run ./cmd/fingerprint | diff FINGERPRINT.txt -

# perfbench (the BENCHMARK.json runner) is its own Go module, so the
# root `go test ./...` never builds it; vet and test it here so a change
# to the cast/serve API it calls cannot break the benchmark unnoticed.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# End-to-end smoke of the benchmark: every BENCHMARK.json workload runs
# once for one second (perfbench/run.sh builds into the gitignored
# .bench_build/, where the output lands too) and its last line must
# report correct output and no failed op.
perfbench-smoke:
	@mkdir -p .bench_build
	@for w in broadcast cold-pack warm-reload sim-dist; do \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 > .bench_build/smoke-$$w.out || exit 1; \
		last=$$(tail -n 1 .bench_build/smoke-$$w.out); \
		case "$$last" in \
		'{"correct":true'*'"failed":0'*) echo "perfbench-smoke $$w: ok" ;; \
		*) echo "perfbench-smoke $$w: FAIL: $$last"; exit 1 ;; \
		esac; \
	done

# Short-mode benches: one iteration each, so CI catches benchmark rot
# without paying for full measurements. Per-change microbenchmark
# comparisons run the same benchmarks with repetitions, e.g.
#   go test -run '^$' -bench E5 -benchmem -count 10 .
bench-short:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Content-level determinism fingerprint; diff two runs (or two builds)
# to prove refactors did not change experiment outcomes.
fingerprint:
	$(GO) run ./cmd/fingerprint

clean:
	rm -f repro.test *.test *.prof *.out cover.out cover.lint.out
