# Development entry points. CI (.github/workflows/ci.yml) runs the same
# commands; keep the two in sync.

GO ?= go

.PHONY: all build test race lint fmt fixture-check experiments

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...
	$(GO) test -race -count=2 ./internal/liveproxy/ ./internal/validate/
	$(GO) test -race -count=200 -run TestLiveServerPush ./internal/liveproxy/

# Static enforcement of the simulator's determinism, seeded-RNG and
# pool-discipline invariants (TESTING.md, "Layer 0"). Runs the suite
# twice: standalone over the module, and through go vet's -vettool
# protocol so _test.go files are linted too.
lint:
	$(GO) run ./cmd/simlint ./...
	$(GO) build -o $(CURDIR)/.simlint.bin ./cmd/simlint
	$(GO) vet -vettool=$(CURDIR)/.simlint.bin ./...
	@rm -f $(CURDIR)/.simlint.bin

# The seeded fixture must keep tripping every analyzer in the suite.
fixture-check:
	@if $(GO) run ./cmd/simlint -dir internal/analysis/testdata/fixture; then \
		echo "fixture produced no findings -- an analyzer has gone silent"; exit 1; \
	else \
		echo "fixture canary OK (simlint exits nonzero on seeded violations)"; \
	fi

fmt:
	gofmt -w .

# Regenerates experiments_output.txt, the output EXPERIMENTS.md quotes.
# spdysim's stdout depends only on its inputs (wall-clock lines go to
# stderr), so CI diffs the committed file against a fresh run.
experiments:
	$(GO) run ./cmd/spdysim -exp all -runs 3 > experiments_output.txt.tmp
	mv experiments_output.txt.tmp experiments_output.txt
