#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny load (about five minutes).

Run from the repository root:

    python3 perfbench/smoke_test.py

For every workload it makes one traced run at --seconds 1 and asserts that
each end-to-end metric of BENCHMARK.json is printed with its unit, that the
result line carries every per-layer metric with its unit, and that every
correctness check passed. It then makes one more run with every check's
input damaged (a flipped hash, a dropped reply, an off-by-one count) and
asserts that each of those checks fails and the run exits non-zero.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

CHECKS = {
    "serve_cold": ["all_answered", "ledger_balanced", "cache_share", "tier_vs_replay_hash",
                   "traced_vs_untraced_hash"],
    "serve_hot": ["all_answered", "ledger_balanced", "cache_share", "hot_payload_stable",
                  "tier_vs_replay_hash", "traced_vs_untraced_hash"],
    "agent_freesize": ["delivered_legal", "traced_vs_untraced_hash", "extension_model_calls"],
    "library_ingest": ["reopen_count", "dedup_present", "ingest_decomposition"],
}


def run(workload, corrupt=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", "1"]
    if corrupt:
        cmd += ["--corrupt", ",".join(corrupt)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    return p.returncode, p.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload, checks in CHECKS.items():
        code, out = run(workload)
        expect(code == 0, "%s: traced run exits 0" % workload)
        printed = dict(re.findall(r"^metric e2e\s+(\S+)\s+= \S+ (\S+)$", out, re.M))
        for name, unit in e2e.items():
            expect(printed.get(name) == unit, "%s: prints %s in %s" % (workload, name, unit))
        result = json.loads(out.strip().split("\n")[-1])
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        expect(got == layers, "%s: result line has every per-layer metric with its unit" % workload)
        expect(result["correct"] is True, "%s: result is correct" % workload)
        for check in checks:
            expect(re.search(r"^check %s\s+PASS" % check, out, re.M) is not None,
                   "%s: check %s passes on real results" % (workload, check))

        code, out = run(workload, corrupt=checks)
        expect(code != 0, "%s: a run with damaged results exits non-zero" % workload)
        for check in checks:
            expect(re.search(r"^check %s\s+FAIL" % check, out, re.M) is not None,
                   "%s: check %s fails on a damaged result" % (workload, check))

    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
