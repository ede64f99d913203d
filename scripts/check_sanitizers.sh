#!/usr/bin/env bash
# Sanitizer gate: builds the two sanitizer trees and runs the suites each
# one is meant for.
#
#   1. build-asan/ (CHATPATTERN_ASAN + CHATPATTERN_UBSAN): the parsers and
#      persistence of untrusted bytes, the serving paths, the reverse kernel
#      and the packed squish kernels' shifts and carries — corruption_test,
#      io_test, pattlib_test, serve_test, core_test, sampler_oracle_test,
#      squish_test;
#   2. build-tsan/ (CHATPATTERN_TSAN): the concurrency suites —
#      ctest -R 'thread_pool|batch|obs_stress|serve_stress'.
#
# Only the targets those suites need are built, so a cold run takes about
# as long as one full Release build per tree. Not part of tier-1 ctest.
#
# Usage: check_sanitizers.sh [repo-root]   (JOBS=N sets build parallelism,
#                                           default 2)
set -euo pipefail

ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
JOBS="${JOBS:-2}"

ASAN_TESTS=(corruption_test io_test pattlib_test serve_test core_test sampler_oracle_test
  squish_test)
TSAN_REGEX='thread_pool|batch|obs_stress|serve_stress'
TSAN_TESTS=(thread_pool_test batch_sampler_test mlp_batch_infer_test obs_stress_test
  serve_stress_test)

build() {  # build <dir> <cmake options...> -- <targets...>
  local dir="$1"
  shift
  local opts=()
  while [ "$1" != "--" ]; do
    opts+=("$1")
    shift
  done
  shift
  cmake -S "$ROOT" -B "$ROOT/$dir" "${opts[@]}" >/dev/null
  cmake --build "$ROOT/$dir" -j "$JOBS" --target "$@" >/dev/null
}

echo "== gate 1/2: ASan + UBSan (${ASAN_TESTS[*]}) =="
build build-asan -DCHATPATTERN_ASAN=ON -DCHATPATTERN_UBSAN=ON -- "${ASAN_TESTS[@]}"
(cd "$ROOT/build-asan" &&
  ctest --output-on-failure -R "^($(IFS='|'; echo "${ASAN_TESTS[*]}"))\$") || {
  echo "FAIL(asan): a memory or undefined-behaviour error in the suites above" >&2
  exit 1
}

echo "== gate 2/2: TSan (${TSAN_REGEX}) =="
build build-tsan -DCHATPATTERN_TSAN=ON -- "${TSAN_TESTS[@]}"
(cd "$ROOT/build-tsan" && ctest --output-on-failure -R "$TSAN_REGEX") || {
  echo "FAIL(tsan): a data race in the concurrency suites" >&2
  exit 1
}

echo "check_sanitizers: OK"
