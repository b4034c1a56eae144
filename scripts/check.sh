#!/usr/bin/env bash
# Repository verification: build, vet, full test suite, and the
# concurrent runtime's tests under the race detector.
#
# Usage: scripts/check.sh [-fast]
#   -fast  skip the full (slow) test suite; build + vet + race only
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "-fast" ]] && fast=1

# A check run must write no tracked file; the last step compares against
# this.
tree_before=$(git status --porcelain)

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

# Every tracked Go file (bench/ too) must be gofmt-clean.
echo "== gofmt -l"
unformatted=$(git ls-files -z '*.go' | xargs -0 gofmt -l)
if [[ -n "$unformatted" ]]; then
  echo "gofmt -l lists files that are not gofmt-clean:" >&2
  echo "$unformatted" >&2
  exit 1
fi

if [[ $fast -eq 0 ]]; then
  echo "== go test ./..."
  go test ./...
fi

# The concurrent runtime (worker pool, panic isolation), the streaming
# scoring artifact (pooled scorers, instrumented scoring), the metrics
# core shared across its workers, the HTTP serving layer scoring each
# request on its own goroutine through that runtime's per-document
# path, the corpus store (concurrent segment reads under Scan/Lookup,
# crash-recovery reopen), and the model lifecycle (registry commits
# racing opens, hot-swaps racing traffic) must be race-clean, not just
# correct.
echo "== go test -race ./internal/resilience/... ./internal/detector/... ./internal/core/... ./internal/obs/... ./internal/serve/... ./internal/corpus/... ./internal/registry/... ./internal/lifecycle/..."
go test -race ./internal/resilience/... ./internal/detector/... ./internal/core/... ./internal/obs/... ./internal/serve/... ./internal/corpus/... ./internal/registry/... ./internal/lifecycle/...

# Store race certification: three concurrent scanners racing a live
# appender, point reads racing Close, and query walks (which hold a
# segment's reader across its whole bitmap walk) racing Close and an
# appender — the committed-extent bounding and reader-refcount (mapping
# lifetime) invariants of the store's mmap read path — plus the
# concurrent segment writer behind IngestJSONL and AppendAll (decode,
# build and commit on three goroutines: byte identity with single
# Appends, error paths, no leaked goroutine), and lookups racing to be
# the first to decode a posting on a freshly opened store, repeated
# under the race detector.
echo "== store race step"
go test -race -count=2 -run 'TestScanWhileAppend|TestDocConcurrentWithClose|TestLookupQueryDocsConcurrentWithClose|TestIngestJSONL|TestAppendAll|TestLookupConcurrentFirstUse' ./internal/corpus/store/

# Runner race certification: Process's recycled reply window (each
# reply channel handed from feeder to worker to emitter and back, with
# cancellation mid-stream) and RunSlice's claimed-index slots, repeated
# under the race detector.
echo "== runner race step"
go test -race -count=3 -run 'TestProcess|TestRunSlice|TestContextCancellation|TestRunItemMatchesRunSlice' ./internal/resilience/

# Allocation-regression gates: the scoring hot path (tokenize,
# featurize, PII clean path, pooled detector scoring), the annotation
# stages on a cue-free document (taxonomy gate, seed query) and the obs
# metric handles it records into must stay allocation-free; the JSONL
# line decoder allocates only its strings, the segment index builder
# nothing on terms it has seen, and store Open a fixed few per segment
# (no posting is decoded until a lookup reads it). These run
# under the race detector above too, but the race detector changes the
# allocator, so assert them in a plain run.
echo "== alloc-regression tests"
go test -run 'Allocs' ./internal/tokenize/ ./internal/features/ ./internal/pii/ ./internal/taxonomy/ ./internal/query/ ./internal/detector/... ./internal/core/ ./internal/obs/ ./internal/corpus/ ./internal/corpus/store/

if [[ $fast -eq 0 ]]; then
  # Differential fuzz smoke: the one-pass PII engine must stay
  # byte-identical to the legacy regex cascade (its in-tree oracle).
  # A short guided run on top of the committed corpus catches gate or
  # automaton soundness bugs before they need a long campaign.
  echo "== pii differential fuzz smoke (-fuzztime=10s)"
  go test -run '^$' -fuzz '^FuzzExtractPrefilterEquivalence$' -fuzztime 10s ./internal/pii/

  # Attack-cue gate differential fuzz smoke: the gated
  # taxonomy.Categorize must code every input exactly as running all 78
  # cue regexps does (the ungated loop is its in-test oracle).
  echo "== taxonomy gate differential fuzz smoke (-fuzztime=10s)"
  go test -run '^$' -fuzz '^FuzzCategorizeGateEquivalence$' -fuzztime 10s ./internal/taxonomy/

  # Featurizer differential fuzz smoke: the occupancy-bitmap gather
  # must give the legacy string-hashing vectorizer's vector (its
  # in-test oracle) at any feature-space size, on a reused Featurizer.
  echo "== featurizer differential fuzz smoke (-fuzztime=10s)"
  go test -run '^$' -fuzz '^FuzzFeaturizerMatchesReference$' -fuzztime 10s ./internal/features/

  # Tokenizer differential fuzz smoke: Session's one-pass ASCII path and
  # its rune-path restart must give the legacy rune-stepping WordPiece
  # pieces (its in-test oracle) over vocabularies drawn from the input.
  echo "== tokenizer differential fuzz smoke (-fuzztime=10s)"
  go test -run '^$' -fuzz '^FuzzSessionMatchesReference$' -fuzztime 10s ./internal/tokenize/

  # WordPiece trainer differential fuzz smoke: selection over the
  # candidate list must pick the same merges as the scan over every
  # pair (its in-test oracle) on small fuzzed corpora.
  echo "== trainer differential fuzz smoke (-fuzztime=10s)"
  go test -run '^$' -fuzz '^FuzzTrainMatchesReference$' -fuzztime 10s ./internal/tokenize/

  # JSONL decoder differential fuzz smoke: the schema decoder plus its
  # encoding/json fallback must give the plain encoding/json decode (its
  # in-test oracle) the same document and the same error on any line.
  echo "== jsonl decoder differential fuzz smoke (-fuzztime=10s)"
  go test -run '^$' -fuzz '^FuzzDecodeJSONLLineMatchesEncodingJSON$' -fuzztime 10s ./internal/corpus/

  # Corpus-store differential fuzz smokes: the segment record decoder
  # must reject every non-canonical framing and round-trip every
  # accepted payload byte-identically, the posting bitmaps must agree
  # with a naive in-memory oracle, and Open's one-pass index check must
  # reject exactly the .idx bytes an eager decode rejects, with every
  # lookup then decoding the eager decode's posting. One -fuzz target
  # per invocation (go test rejects multi-target fuzz runs).
  echo "== store fuzz smokes (-fuzztime=10s each)"
  go test -run '^$' -fuzz '^FuzzSegmentDecode$' -fuzztime 10s ./internal/corpus/store/
  go test -run '^$' -fuzz '^FuzzPostingIterator$' -fuzztime 10s ./internal/corpus/store/
  go test -run '^$' -fuzz '^FuzzIndexOpen$' -fuzztime 10s ./internal/corpus/store/

  # Model directory fuzz smoke: detector.Load over arbitrary meta.json
  # and vocab.txt bytes must return an error naming the file at fault
  # or a detector whose scores lie in [0, 1], and never panic.
  echo "== model directory fuzz smoke (-fuzztime=10s)"
  go test -run '^$' -fuzz '^FuzzLoad$' -fuzztime 10s ./internal/detector/

  # Feedback body fuzz smoke: POST /v1/feedback answers 202 or 400 on
  # any body, a 202 hands the retrain sink exactly the accepted items
  # (each with text and a task annotate.ParseTask accepts), and a 400
  # hands it nothing.
  echo "== feedback body fuzz smoke (-fuzztime=10s)"
  go test -run '^$' -fuzz '^FuzzFeedbackBody$' -fuzztime 10s ./internal/serve/

  # Registry manifest fuzz smoke: every accepted manifest must
  # re-encode to its canonical byte form (decode∘encode identity, the
  # FuzzSegmentDecode contract for the model registry's root state).
  echo "== registry manifest fuzz smoke (-fuzztime=10s)"
  go test -run '^$' -fuzz '^FuzzRegistryManifest$' -fuzztime 10s ./internal/registry/
fi

if [[ $fast -eq 0 ]]; then
  # Benchmark smoke: every benchmark must still run (one iteration, no
  # timing claims) so bench rot is caught here, not at release time.
  echo "== benchmark smoke (-benchtime=1x)"
  go test -run '^$' -bench . -benchtime 1x ./... > /dev/null

  # The benchmark of record (BENCHMARK.json) is its own module that
  # neither `go build ./...` nor `go test ./...` compiles, so build it
  # against this checkout, run all five workloads at smoke scale against
  # a real harassd (each must end correct=true, paper-repro against the
  # 33 goldens), and run its unit tests. It measures nothing here: the
  # regression gate is the parent-vs-change run of BENCHMARK.json.
  echo "== bench/ smoke (all workloads) + unit tests"
  bash bench/run.sh -workload all -smoke
  (cd bench && go test ./...)
fi

if [[ "$(git status --porcelain)" != "$tree_before" ]]; then
  echo "check.sh changed the working tree:" >&2
  diff <(echo "$tree_before") <(git status --porcelain) >&2 || true
  exit 1
fi

echo "OK"
