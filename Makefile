# Standard entry points; `make check` is the full verification gate that
# scripts/check.sh (and CI) run.

GO ?= go

.PHONY: check test race lint build fmt loc microbench crash

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

# The per-layer benchmarks beside the code they measure: decode kernels
# per codec against a memmove roofline, the batch and tuple read paths
# (merge join, group-by), the observability layer's cost, and WAL group
# commit against one writer's per-commit fsync.
microbench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/core ./internal/table ./internal/wal

lint:
	$(GO) vet ./...
	$(GO) run ./cmd/avqlint ./...

fmt:
	gofmt -w cmd internal examples *.go

# ROADMAP ground rule (iii): net non-test lines in internal/ + cmd/.
loc:
	@sh scripts/loc.sh
