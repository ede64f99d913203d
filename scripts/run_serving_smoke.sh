#!/usr/bin/env bash
# Serving-layer smoke test: generate a 49-request NDJSON trace (with
# duplicate contents), replay it through the chatpattern_serve binary, and
# assert (1) exit code 0, (2) one result line per trace line, (3) the replay
# is bit-identical between 1 worker and 4 workers — the serving determinism
# contract (docs/SERVING.md). A second trace with a malformed line asserts
# the strict-replay contract: the bad line still yields a rejected result,
# its line number is reported on stderr, and the process exits 1. Last, a
# trace passed without --trace must print usage and exit 2.
#
# Usage: run_serving_smoke.sh <chatpattern_serve-binary> [workdir]
# Wired into ctest as `serving_smoke` (tests/CMakeLists.txt).
set -euo pipefail

SERVE_BIN=${1:?usage: run_serving_smoke.sh <chatpattern_serve-binary> [workdir]}
WORKDIR=${2:-$(mktemp -d)}
mkdir -p "$WORKDIR"
TRACE="$WORKDIR/trace.ndjson"

# 49 lines: 48 valid requests over 12 distinct contents (heavy cache/dedup
# traffic) plus one raw-topology request.
: > "$TRACE"
for i in $(seq 0 47); do
  seed=$((100 + i % 12))
  style=$([ $((i % 2)) -eq 0 ] && echo Layer-10001 || echo Layer-10003)
  echo "{\"id\":\"s$i\",\"style\":\"$style\",\"count\":1,\"rows\":32,\"cols\":32,\"steps\":6,\"polish\":1,\"width_nm\":2048,\"height_nm\":2048,\"seed\":$seed}" >> "$TRACE"
done
echo '{"id":"raw","legalize":false,"rows":16,"cols":16,"steps":4,"polish":0,"seed":9}' >> "$TRACE"

run() {
  local workers=$1 out=$2
  "$SERVE_BIN" --trace "$TRACE" --out "$out" --train 24 --workers "$workers" \
    2> "$WORKDIR/stderr_w$workers.log"
}

run 1 "$WORKDIR/out_w1.ndjson"
run 4 "$WORKDIR/out_w4.ndjson"

lines=$(wc -l < "$TRACE")
for w in 1 4; do
  results=$(wc -l < "$WORKDIR/out_w$w.ndjson")
  if [ "$results" -ne "$lines" ]; then
    echo "FAIL: workers=$w produced $results result lines for $lines trace lines" >&2
    exit 1
  fi
done

# Determinism: identical per-request library hashes regardless of workers.
hash_of() { grep -o '"library_hash":"[0-9a-f]*"' "$1" | sort; }
if ! diff <(hash_of "$WORKDIR/out_w1.ndjson") <(hash_of "$WORKDIR/out_w4.ndjson") > /dev/null; then
  echo "FAIL: 1-worker and 4-worker replays produced different libraries" >&2
  exit 1
fi

# Strict-replay contract: a malformed input line surfaces as a rejected
# result AND fails the replay with exit 1, naming the offending line number.
BAD="$WORKDIR/trace_bad.ndjson"
head -n 3 "$TRACE" > "$BAD"
echo 'this line is not json' >> "$BAD"
tail -n +4 "$TRACE" | head -n 2 >> "$BAD"

rc=0
"$SERVE_BIN" --trace "$BAD" --out "$WORKDIR/out_bad.ndjson" --train 24 --workers 2 \
  2> "$WORKDIR/stderr_bad.log" || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "FAIL: malformed trace exited $rc (want 1)" >&2
  exit 1
fi
if ! grep -q 'malformed line 4' "$WORKDIR/stderr_bad.log"; then
  echo "FAIL: stderr did not report 'malformed line 4'" >&2
  cat "$WORKDIR/stderr_bad.log" >&2
  exit 1
fi
bad_lines=$(wc -l < "$BAD")
bad_results=$(wc -l < "$WORKDIR/out_bad.ndjson")
if [ "$bad_results" -ne "$bad_lines" ]; then
  echo "FAIL: strict replay produced $bad_results results for $bad_lines lines" >&2
  exit 1
fi
if ! grep -q '"status":"rejected"' "$WORKDIR/out_bad.ndjson"; then
  echo "FAIL: malformed trace line did not produce a rejected result" >&2
  exit 1
fi

# A trace passed as a positional argument (without --trace) is a usage
# error, not an empty replay of stdin.
rc=0
"$SERVE_BIN" "$TRACE" --train 24 < /dev/null > "$WORKDIR/out_positional.ndjson" \
  2> "$WORKDIR/stderr_positional.log" || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "FAIL: positional trace argument exited $rc (want 2)" >&2
  exit 1
fi
if ! grep -q 'usage:' "$WORKDIR/stderr_positional.log"; then
  echo "FAIL: positional trace argument did not print usage" >&2
  cat "$WORKDIR/stderr_positional.log" >&2
  exit 1
fi

echo "OK: replayed $lines lines, results deterministic across 1 and 4 workers; strict malformed-line exit and positional-argument usage error verified"
