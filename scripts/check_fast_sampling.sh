#!/usr/bin/env bash
# Fast-sampling gate (docs in DESIGN.md "TimestepSchedule", EXPERIMENTS.md
# "fast sampling ablation"): one command that proves the two claims the
# few-step engine stands on, by running the dedicated gtest binaries in a
# fixed order:
#
#   1. bit-identity — the stride-1 / degenerate-budget path of both
#      ScheduleKinds (noise_uniform, searched) reproduces the original
#      full-chain sampler bit-for-bit on both denoiser families, and the
#      composed-jump algebra matches the literal per-step matrix products
#      (fast_sampler_test);
#   2. statistical equivalence — at a 50-visited-step budget (K/20) both
#      placements keep density / complexity / diversity within the
#      documented thresholds of the 1000-step chain (fast_quality_test).
#
# The split mirrors how the claims fail: 1 breaking means the algebra or the
# schedule construction regressed (fix the code); 2 breaking alone means the
# quality/thresholds drifted (inspect the printed per-metric table).
#
# Usage: check_fast_sampling.sh <fast_sampler_test-binary> <fast_quality_test-binary>
# Wired into ctest as `check_fast_sampling` (tests/CMakeLists.txt).
set -euo pipefail

SAMPLER_BIN=${1:?usage: check_fast_sampling.sh <fast_sampler_test-binary> <fast_quality_test-binary>}
QUALITY_BIN=${2:?usage: check_fast_sampling.sh <fast_sampler_test-binary> <fast_quality_test-binary>}

echo "== gate 1/2: composed-jump algebra + stride-1 bit-identity =="
"$SAMPLER_BIN" --gtest_brief=1 || {
  echo "FAIL(bit-identity): the fast-sampling algebra or the stride-1 anchor regressed" >&2
  exit 1
}

echo "== gate 2/2: few-step statistical equivalence =="
"$QUALITY_BIN" --gtest_brief=1 || {
  echo "FAIL(quality): few-step metrics drifted outside the documented thresholds" >&2
  exit 1
}

echo "OK: stride-1 is bit-identical and K/20 fast sampling is statistically equivalent"
