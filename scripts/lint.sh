#!/usr/bin/env bash
# lint.sh — the repository's full lint gate, identical locally and in CI.
#
# Usage: scripts/lint.sh [artifact.json]
#
# Runs, in order: gofmt (whole tree, including testdata exemplars),
# go vet, the grcalint analyzer suite (style + concurrency-correctness
# checks; findings also written as a JSON envelope artifact when a path
# is given), grca vet -strict over the built-in and example specs, a grep
# that keeps the docs from drifting back to a deleted instrument, one
# that keeps each application's spec in its .grca file alone, one that
# keeps routing memos in internal/epoch, and one that keeps the server to
# one streaming processor.
# Exits non-zero on the first failing stage; a zero exit means zero
# findings everywhere.
set -u
cd "$(dirname "$0")/.."

artifact="${1:-}"
fail=0

echo "== gofmt =="
out=$(gofmt -l .)
if [ -n "$out" ]; then
  echo "gofmt needed on:" >&2
  echo "$out" >&2
  fail=1
fi

echo "== go vet =="
go vet ./... || fail=1

echo "== grcalint (analyzer suite) =="
if [ -n "$artifact" ]; then
  # Capture the JSON envelope for downstream tooling regardless of
  # outcome; the human-readable pass decides the exit status.
  go run ./cmd/grcalint -json >"$artifact" || true
fi
go run ./cmd/grcalint || fail=1

echo "== grca vet -strict (builtins) =="
go run ./cmd/grca vet -strict || fail=1

echo "== grca vet -strict (example specs) =="
go run ./cmd/grca vet -strict examples/specs/*.grca || fail=1

echo "== retired instruments stay retired =="
# `go run ./bench` measures and `go test` gates; nothing outside bench/
# and the PR history may point back at the deleted bench files or smoke.
# ([s] keeps the pattern from matching this file.)
if git grep -nE 'BENCH_[A-Z]+\.json|serve_[s]moke' -- . \
    ':!bench' ':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md'; then
  echo "mentions of a deleted instrument (above)" >&2
  fail=1
fi

echo "== one copy of each spec =="
# An application is its .grca file (the shipped ones are examples/specs,
# embedded by grca/examples/specs); a spec header in non-test Go is a
# second copy that nothing holds equal to the first.
if git grep -nE '^app "' -- '*.go' ':!*_test.go'; then
  echo "rule-spec text in Go (above): keep it in a .grca file" >&2
  fail=1
fi

echo "== one memo =="
# Routing-derived answers are memoized by internal/epoch alone; the
# FNV-1a constants in non-test Go elsewhere are the start of a second,
# hand-rolled hashed table.
if git grep -nE '16777619|2166136261' -- '*.go' ':!*_test.go' ':!internal/epoch'; then
  echo "FNV-1a hashing outside internal/epoch (above): memoize through epoch.Memo" >&2
  fail=1
fi

echo "== one stream =="
# The server observes each committed event once, through one
# realtime.Processor with a stream per application; a one-application
# processor there is the start of a second stream clock.
if git grep -nE 'realtime\.(New|NewOnStore)\(' -- 'internal/server/*.go' ':!*_test.go'; then
  echo "one-application realtime processor in the server (above): add a stream to realtime.NewStreams" >&2
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "lint: FAILED" >&2
  exit 1
fi
echo "lint: clean"
