# Standard entry points; `make check` is the full verification gate that
# scripts/check.sh (and CI) run.

GO ?= go

.PHONY: check test race lint build fmt loc bench-obs bench-decode bench-wal bench-join benchgate crash

check:
	sh scripts/check.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/buffer ./internal/table ./internal/simdisk \
		./internal/relation ./internal/blockstore ./internal/exec ./internal/obs \
		./internal/core ./internal/analysis ./internal/wal \
	./internal/backend ./internal/shard ./internal/server

# The kill-at-every-syscall fault-injection matrix: crash at each I/O
# point, recover, and prove the table replays every acknowledged write.
crash:
	$(GO) test ./internal/wal -run 'TestKillEverySyscall|TestKillDuringRecovery' -count=1 -v

bench-decode:
	$(GO) run ./cmd/avqbench -exp decode

benchgate:
	sh scripts/benchgate.sh

bench-obs:
	$(GO) run ./cmd/avqbench -exp obs

bench-wal:
	$(GO) run ./cmd/avqbench -exp wal

bench-join:
	$(GO) run ./cmd/avqbench -exp join

lint:
	$(GO) vet ./...
	$(GO) run ./cmd/avqlint ./...

fmt:
	gofmt -w cmd internal examples *.go

# ROADMAP ground rule (iii): net non-test lines in internal/ + cmd/.
loc:
	@sh scripts/loc.sh
