#!/usr/bin/env python3
"""End-to-end benchmark of ChatPattern (see README.md in this directory).

Run from the repository root:

    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 12 --trace 0

Builds the library, the serving binary and the benchmark program from source
into .bench_build/ (first run only), runs one workload, checks that the
result line carries exactly the metrics BENCHMARK.json declares, and relays
it as the last line of standard output. Exit code 0 only when the build,
the run and every correctness check succeeded.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("serve_cold", "serve_hot", "agent_freesize", "library_ingest")


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then brings the two binaries up to date."""
    log = os.path.join(BUILD, "build.log")
    os.makedirs(BUILD, exist_ok=True)
    with open(log, "a") as out:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            r = subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                               stdout=out, stderr=subprocess.STDOUT)
            if r.returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                fail("cmake configure failed (is the repository source tree next to perfbench/?)")
        r = subprocess.run(["cmake", "--build", BUILD, "-j4", "--target", "perfbench",
                            "chatpattern_serve"], stdout=out, stderr=subprocess.STDOUT)
    if r.returncode != 0:
        fail("build failed; see " + log)


def describe():
    try:
        r = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def model_cache_path():
    """The in-process oracle's trained-model cache, named after a digest of
    every source that can change the model: the library sources, the build
    files and the benchmark's own sources (which fix the backend config). A
    model trained from other sources is never loaded."""
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt"), os.path.join(HERE, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), os.path.join(HERE, "src")):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            files += [os.path.join(dirpath, name) for name in sorted(filenames)]
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            digest.update(f.read())
    return os.path.join(BUILD, "oracle_model-%s.bin" % digest.hexdigest()[:16])


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", default="",
                    help="damage the input of one correctness check (smoke test)")
    args = ap.parse_args()

    expected = declared_metrics(args.trace)
    build()
    workdir = os.path.join(BUILD, "work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", os.path.join(BUILD, "cp_root", "tools", "chatpattern_serve"),
           "--workdir", workdir, "--model-cache", model_cache_path(), "--describe", describe()]
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    # Own process group: on a timeout the benchmark and every tier process it
    # started are killed together, then reaped.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        stdout, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("benchmark run exceeded its time limit")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        if lines and lines[-1]:
            print(lines[-1])
        print("error: benchmark run failed (exit %d)" % proc.returncode, file=sys.stderr)
        sys.exit(proc.returncode or 1)
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail("metrics differ from BENCHMARK.json: missing %s, unexpected %s, unit mismatch %s" % (
            sorted(set(expected) - set(got)), sorted(set(got) - set(expected)),
            sorted(n for n in got if n in expected and got[n] != expected[n])))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
