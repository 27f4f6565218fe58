#!/usr/bin/env python3
"""Build and run the platform benchmark.

    python3 perfbench/run.py --workload fleet_outage --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --selftest

Run from anywhere; the repository root is the parent of this directory.
The benchmark binary is built from source (CMake, Release) into
$CARGO_TARGET_DIR (default .bench_build, relative to the root) on first
use. Build output goes to stderr, so the last stdout line is the
benchmark's JSON result. Reports and span traces land in
<build dir>/out. The exit status is the benchmark's: nonzero when an
output check failed, the build failed or the arguments were bad.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fleet_outage", "vehicle_chaos", "dse_explore")
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    cmake_dir = build_dir() / "perfbench"
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return cmake_dir / "perfbench"


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() or "unknown"


def run_binary(binary, args, out_dir, capture=False):
    out_dir.mkdir(parents=True, exist_ok=True)
    command = [str(binary)] + args + ["--out-dir", str(out_dir),
                                      "--commit", commit()]
    if capture:
        return subprocess.run(command, capture_output=True, text=True)
    return subprocess.run(command)


# --- Self-test -------------------------------------------------------------------


def selftest(binary):
    """The benchmark's own tests: determinism, worker-count independence,
    seed sensitivity and metric naming."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    nproc = str(os.cpu_count() or 1)
    scratch = build_dir() / "out" / "selftest"
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    def bench(workload, seed, trace="0", workers=None):
        args = ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", trace]
        if workers:
            args += ["--workers", workers]
        tag = f"{workload}-{seed}-{trace}-{workers or 'default'}"
        done = run_binary(binary, args, scratch / tag, capture=True)
        expect(done.returncode == 0, f"{tag}: exits 0")
        if done.returncode != 0:
            sys.exit(done.stdout[-2000:] + done.stderr[-2000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        report = json.loads((scratch / tag / f"{workload}.report.json").read_text())
        return result, report

    def outcome(report):
        return report["outcome_fingerprint"], report["simulated"]

    def same_blocks(a, b):
        blocks = a["block_fingerprints"].keys() & b["block_fingerprints"].keys()
        return all(a["block_fingerprints"][k] == b["block_fingerprints"][k]
                   for k in blocks)

    for workload in WORKLOADS:
        first, report = bench(workload, 3)
        _, again = bench(workload, 3)
        expect(outcome(report) == outcome(again) and same_blocks(report, again),
               f"{workload}: same seed, identical simulated metrics and "
               f"fingerprint across two runs")
        _, other = bench(workload, 4)
        expect(other["input_fingerprint"] != report["input_fingerprint"],
               f"{workload}: a different seed changes the inputs")
        if workload != "fleet_outage":
            _, serial = bench(workload, 3, workers="1")
            _, wide = bench(workload, 3, workers=nproc)
            expect(outcome(serial) == outcome(report) == outcome(wide) and
                   same_blocks(serial, wide),
                   f"{workload}: 1 and {nproc} workers give identical outcomes")
        traced, _ = bench(workload, 3, trace="1")
        expect(list(first["metrics"]) == end_to_end,
               f"{workload}: --trace 0 reports exactly the end-to-end metrics")
        expect(list(traced["metrics"]) == per_layer,
               f"{workload}: --trace 1 reports exactly the per-layer metrics")
        names = (list(first["metrics"]) + list(traced["metrics"]) +
                 list(report["simulated"]))
        bad = [n for n in names if not NAME.fullmatch(n)]
        expect(not bad, f"{workload}: metric names match [A-Za-z0-9_.-]+ {bad}")
    print(f"selftest: {'FAIL' if failures else 'PASS'}")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--selftest", action="store_true",
                        help="build, then run the benchmark's own tests")
    known, rest = parser.parse_known_args()
    binary = build()
    if known.selftest:
        return selftest(binary)
    return run_binary(binary, rest, build_dir() / "out").returncode


if __name__ == "__main__":
    sys.exit(main())
