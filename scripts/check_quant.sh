#!/usr/bin/env bash
# Quantized-inference gate (docs in DESIGN.md "Quantized inference",
# EXPERIMENTS.md "denoiser inference bench"): one command that proves the
# two claims the vectorized/int8 tier stands on, by running the dedicated
# gtest suites in dependency order:
#
#   1. kernel contracts — the 16-wide AVX2 fp32 twin is bit-identical to the
#      portable kernel, the int8 scalar and AVX2 kernels agree bit-for-bit,
#      and a warm workspace never serves a stale int8 weight pack after an
#      optimizer step / load_params / manual version bump (nn_test, filtered
#      to the gemm + infer suites);
#   2. statistical equivalence — sampling through an int8 model
#      (MlpConfig::quantized, the only precision selector) keeps density /
#      complexity / diversity within the documented thresholds of fp32
#      sampling with the same trained weights, is bit-deterministic, and
#      really runs the quantized kernels (quant_quality_test).
#
# The split mirrors how the claims fail: 1 breaking means a kernel or the
# version-stamp plumbing regressed (fix the code); 2 breaking alone means
# quantization error drifted past the documented thresholds (inspect the
# printed per-metric table).
#
# Usage: check_quant.sh <nn_test-binary> <quant_quality_test-binary>
# Wired into ctest as `check_quant` (tests/CMakeLists.txt).
set -euo pipefail

USAGE="usage: check_quant.sh <nn_test-binary> <quant_quality_test-binary>"
NN_BIN=${1:?${USAGE}}
QUALITY_BIN=${2:?${USAGE}}

echo "== gate 1/2: kernel bit-contracts + pack invalidation =="
"$NN_BIN" --gtest_brief=1 \
  --gtest_filter='GemmTest.*:InferTest.*' || {
  echo "FAIL(kernels): a SIMD/int8 kernel contract or the quantized pack version stamping regressed" >&2
  exit 1
}

echo "== gate 2/2: int8 statistical equivalence =="
"$QUALITY_BIN" --gtest_brief=1 || {
  echo "FAIL(quality): int8 sampling metrics drifted outside the documented thresholds" >&2
  exit 1
}

echo "OK: vectorized fp32 is bit-identical, int8 is statistically equivalent"
