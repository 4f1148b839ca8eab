#!/usr/bin/env sh
# loc.sh — ROADMAP ground rule (iii)'s number: net non-test Go lines in
# internal/ + cmd/. Every PR reports it before and after; it should fall.
set -eu

cd "$(dirname "$0")/.."

find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l
