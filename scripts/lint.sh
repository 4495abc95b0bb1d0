#!/usr/bin/env bash
# lint.sh — the repository's full lint gate, identical locally and in CI.
#
# Usage: scripts/lint.sh [artifact.json]
#
# Runs, in order: gofmt (whole tree, including testdata exemplars),
# go vet, the grcalint analyzer suite (style, concurrency-correctness and
# deadcode checks, stale //lint:ignore directives included; findings
# also written as a JSON envelope artifact when a path is given), grca
# vet -strict over the built-in and example specs, a grep that keeps
# the docs from drifting back to a deleted instrument, one that keeps
# each application's spec in its .grca file alone, one that
# keeps routing memos in internal/epoch, one that keeps the server to
# one streaming processor, one that keeps the event WAL from growing a
# durability clock of its own, and one that keeps the server, the
# replication package and the chaos durability gates off the event WAL and
# its one-shot shipping path, so that every batch is written once, to the
# journal, and the gates test the path the server runs, and one that keeps
# each journal format's one codec in internal/wal: the record envelope and
# its kinds, and the checkpoint image a follower writes into its snap/,
# and one that keeps internal/wal's reads and writes on their caller's
# goroutine.
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

echo "== one sync per batch =="
# The journal's group fsync is the commit point and the batch path's only
# sync; the event WAL syncs a segment when it seals it. A ticker in the
# WAL is how a second durability clock (a background flusher) comes back.
if git grep -nE 'time\.NewTicker' -- 'internal/wal/*.go' ':!*_test.go'; then
  echo "ticker in internal/wal (above): the WAL syncs at a seal, the journal per commit group" >&2
  fail=1
fi

echo "== one write per batch =="
# The journal is the only thing written per batch; a checkpoint links its
# sealed segments as runs. wal.Log's append and the one-shot WAL shipping
# path (replica.ShipWALOnce into a WALSink) are vestiges only bench/ drives
# (ROADMAP item 1(b)); the server or the replication package opening one is
# the second write coming back, and the chaos durability classes reaching
# one is a gate drifting back onto code no server runs.
if git grep -nE 'wal\.Open\(|wal\.Log\b|replica\.(ShipWALOnce|OpenWALSink|WALSink)' -- \
    'internal/server/*.go' 'internal/replica/*.go' 'internal/chaos/*.go' ':!*_test.go'; then
  echo "event WAL or one-shot WAL shipping in the server, the replication package or the chaos gates (above): checkpoint through wal.Checkpointer, drive server.Open" >&2
  fail=1
fi

echo "== one journal codec =="
# internal/wal owns the journal record (AppendJournalRecord,
# ParseJournalRecord and the kind table beside them) and the checkpoint
# image (ImageWriter, read back by recovery's reader). A kind constant
# declared elsewhere, or a second reader of either — a decoder of the
# image, a sequence read off a record's front — is the second codec
# coming back.
if git grep -nE '^\s*(const\s+)?(rec[A-Z]\w*|\w*Journal\w*Kind)\s+(byte\s+)?=|[^=!<>:]=\s*wal\.Journal\w*Kind\b|\bImageDecoder\b|\bJournalSeq\(' -- \
    '*.go' ':!*_test.go' ':!internal/wal'; then
  echo "journal record kind or second journal codec outside internal/wal (above): read and write records through wal.ParseJournalRecord/AppendJournalRecord, checkpoints through wal.ImageWriter" >&2
  fail=1
fi

echo "== wal starts no goroutine =="
# A restore and a replay decode each frame on the goroutine that reads
# it, into one frame's scratch. A go statement in internal/wal is a
# decode pipe — a ring of decoded frames and workers to stop on every
# error path — or another background worker coming back.
if git grep -nE '^\s*go [a-zA-Z(]' -- internal/wal ':!*_test.go'; then
  echo "go statement in internal/wal (above): decode and write on the caller's goroutine" >&2
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "lint: FAILED" >&2
  exit 1
fi
echo "lint: clean"
