#!/usr/bin/env sh
# check.sh — the repo's one-command verification gate.
#
# Runs, in order: formatting, go vet, the build, the avqlint static-analysis
# suite (internal/analysis; any finding fails, there is no baseline) plus
# the no-lint-baseline, no-Deprecated-wrappers, one-fence-search, one-
# block-cache, one-codec-set, one-chain-walk, no-zeroed-object, one-
# page-read (viewStream) and no-per-field-window guards,
# the full test suite, the bench module's vet and tests (every ledger
# workload timed and traced at 20k tuples), 10 s fuzz smokes of the block
# decoder against its reference, of the block edit against a re-encode
# and of the server's wire (request decode, response encoding against
# encoding/json), the crash matrix, the race-focused test run over the
# concurrency-sensitive packages, and repeated race runs of the buffer
# pool's miss-path tests, the store and manifest models, the object and
# filesystem stores' cached read handles against writers and deleters,
# the object pager's write-behind pages against readers, writers and
# freers, and the parallel tuple sort against its reference.
# Fails fast on the first broken stage so CI output points at one problem;
# the last line is the tracked line count.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l cmd internal examples *.go)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== avqlint"
# Takes package patterns only; any finding fails, and so does a
# suppression naming a rule that does not exist.
go run ./cmd/avqlint ./...
# Findings are fixed or suppressed in source with a justification; keep an
# accepted-findings baseline file or flag from growing back.
if [ -e scripts/avqlint-baseline.json ] || grep -rnE 'avqlint-baseline\.json|lint-baseline|(^|[[:space:]"])-(write-)?baseline' Makefile scripts/*.sh cmd/avqlint | grep -v '^scripts/check.sh:'; then echo "avqlint baseline found; fix the finding or suppress it in source" >&2; exit 1; fi
# Every entry point has one ctx-first name; keep Deprecated twins from growing back.
if grep -rn 'Deprecated:' --include='*.go' cmd internal examples | grep -v '^internal/analysis/'; then echo "Deprecated: wrapper found; give the entry point one ctx-first name" >&2; exit 1; fi
# The manifest's fence array has one binary search, in internal/blockstore
# (Snapshot.SeekTuple / SeekAttr0 / SeekPhi / Home); keep private bisects
# over Fence( from growing back in its callers.
if grep -A8 'lo, hi :=' internal/table/*.go internal/exec/*.go | grep 'Fence('; then echo "hand-rolled bisect over block fences; call the blockstore.Snapshot search" >&2; exit 1; fi
# The buffer pool's coded pages are the only block cache; keep a second,
# decoded-block cache from growing back beside it.
if grep -rnE 'blockCache|CacheBlocks|decodeBlockCached' --include='*.go' cmd internal; then echo "decoded-block cache found; read the coded page through the pool and decode into the caller's arena" >&2; exit 1; fi
# One codec set ({raw, avq, packed}), one packing rule (core.Sizer.Chunk)
# and one load path (GOMAXPROCS workers); keep the retired ablation codecs,
# the bracketed fit, MaxFit and the Concurrency knob from growing back.
if grep -rnE 'CodecRepOnly|CodecDeltaChain|maxFitBracketed|core\.MaxFit\(|WithConcurrency|Config\{Concurrency' --include='*.go' cmd internal; then echo "retired codec, second packer or Concurrency knob found; use core.Codecs, core.Pack / Sizer.Chunk and the store's one pipeline" >&2; exit 1; fi
# Every decode shape walks the difference chain in split-ordinal form
# (core's layout.walk); keep the digit-vector chain — ordinal.AddFrom /
# SubFrom over parked difference tuples, walkTuples — from growing back.
if grep -rnE 'ordinal\.(AddFrom|SubFrom)|walkTuples' --include='*.go' internal/core; then echo "digit-vector chain walk found in internal/core; walk the chain in split-ordinal form (layout.walk)" >&2; exit 1; fi
# A partial decode walks from the block's nearest restart (the fence's
# core.Restarts); keep the anchor-walk probes from growing back in exec.
if grep -n 'SearchBlockArena' internal/exec/*.go | grep -v '_test\.go:'; then echo "exec probes a block with SearchBlockArena; decode the span from the fence's restart directory (core.DecodeAttr0SpanArena)" >&2; exit 1; fi
# An object-backed page costs one object write, its first Write: the
# pager's Allocate writes nothing (a fresh page reads as zeros from
# memory); keep the zeroed-object PUT from growing back.
if awk '/^func \(p \*Pager\) Allocate\(/,/^}/' internal/backend/pager.go | grep -nE 'WriteBlock|p\.put|p\.Write'; then echo "backend.Pager.Allocate writes an object; a fresh page reads as zeros from memory until its first Write" >&2; exit 1; fi

# viewStream is the store's one read of a page: it pins, checks the
# framing, calls back and unpins, joining the unpin's error. Keep a second
# Pool.Get, with its own unpin paths, from growing back in internal/blockstore.
if awk '/^func \(s \*Store\) viewStream\(/,/^}/ { next } /pool\.Get\(/ { print FILENAME ": " $0 }' internal/blockstore/*.go | grep .; then echo "pool.Get outside viewStream in internal/blockstore; read the page through viewStream" >&2; exit 1; fi
# diffReader.window parses a frame that stays in the suffix through the
# schema's fixed tail plan (relation.TailPlan): a dot product of its tail
# bytes and a word-wide radix check, one loop over frames and none over
# attributes. Keep a per-field loop from growing back inside it.
window=$(awk '/^func \(r \*diffReader\) window\(/,/^}/' internal/core/diff.go)
if [ -z "$window" ] || echo "$window" | grep -nE 'AttrAtByte\(|AttrOffset\(|AttrWidths\(' || [ "$(echo "$window" | grep -cE '^[[:space:]]*for[[:space:]{]')" -ne 1 ]; then echo "diffReader.window loops over attributes (or is gone); parse the frame through the schema's TailPlan, and leave other frames to long" >&2; exit 1; fi

echo "== go test"
go test ./...

echo "== bench module (go vet + go test: every workload timed and traced at 20k tuples)"
# bench/ is a nested module that ./... does not reach. Its TestEveryWorkload
# replays every traced read on a twin store and fails on engine stats that
# disagree, so a change to which blocks the executor reads or partially
# decodes fails here rather than in a ledger run.
(cd bench && go vet ./... && go test ./...)

echo "== decode fuzz smoke (every decode shape against the reference decoder)"
go test -run '^$' -fuzz FuzzDecodeBlock -fuzztime 10s ./internal/core

echo "== edit fuzz smoke (EditBlock against EncodeBlock of the edited run)"
go test -run '^$' -fuzz FuzzEditBlock -fuzztime 10s ./internal/core

echo "== wire fuzz smoke (request decode + validate, response append-encoding against encoding/json)"
go test -run '^$' -fuzz FuzzServerWire -fuzztime 10s ./internal/server

echo "== crash matrix (kill-at-every-syscall recovery proof)"
go test ./internal/wal -run 'TestKillEverySyscall|TestKillDuringRecovery' -count=1

echo "== go test -race (concurrency-sensitive packages)"
go test -race ./internal/buffer ./internal/table ./internal/simdisk \
    ./internal/relation ./internal/blockstore ./internal/extsort ./internal/exec ./internal/obs \
    ./internal/core ./internal/analysis ./internal/wal \
    ./internal/backend ./internal/shard ./internal/server

echo "== buffer pool miss-path latch tests (-race -count=50)"
# The pool reads outside its lock; repeat the blocked-pager tests so a
# rarely-hit interleaving of the loading latch still shows up.
go test -race -count=50 -run '^TestMiss' ./internal/buffer

echo "== store and manifest models under edits (-race -count=5)"
# Every mutation edits its block's coded stream in place; Check's
# canonical-stream rule proves each edited page equals a re-encode. Every
# publish copies only the manifest chunk it writes; the manifest model
# re-checks every earlier version, so a write through a shared chunk shows.
go test -race -count=5 -run '^(TestStoreModel|TestManifestModel)$' ./internal/blockstore

echo "== cached read handles and write-behind pages under writers, readers and deleters (-race -count=5)"
# A read takes a cached handle outside the store's lock; a write or delete
# drops it. The pager's page writes run in the background, served to
# reads from their copies until they land, and a free waits for them.
# Repeat both stress tests so a read that caches a stale handle, a handle
# closed under a reader, or a page read torn or resurrected by a late
# write, still shows.
go test -race -count=5 -run '^(TestReadCacheStress|TestPagerStress)$' ./internal/backend

echo "== parallel tuple sort against its reference (-race -count=3)"
# SortTuples builds keys, counts, scatters and gathers on GOMAXPROCS
# goroutines; repeat its differential oracle so a racy pass still shows.
go test -race -count=3 -run '^TestSortTuplesMatchesReference$' ./internal/relation

echo "check.sh: all gates passed"
echo "non-test lines in internal/ + cmd/ (scripts/loc.sh): $(sh scripts/loc.sh)"
