# Build / verification entry points. `make check` is the verification gate:
# go vet, the library panic lint (scripts/panic_lint.sh) and -race tests over
# every package that spawns or feeds the shared worker pool — including the
# cancellation tests, which assert that aborted solves leak no pool tokens.

GO ?= go

.PHONY: build test vet race check panic-lint cover

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -short ./internal/parallel ./internal/game ./internal/community ./internal/ceopt ./internal/core ./internal/obs ./internal/fleet ./internal/supervise ./internal/serve

panic-lint:
	sh scripts/panic_lint.sh

check: vet panic-lint race

# Statement-coverage floor (>=70%) for the hot-path solver packages
# (internal/dpsched, internal/game, internal/ceopt, internal/meterstate) —
# see DESIGN.md §10.
cover:
	sh scripts/cover_check.sh
