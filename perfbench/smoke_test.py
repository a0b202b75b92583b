#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json briefly, untraced and traced, and
checks the result line against the contract: exactly the keys correct,
attempted, failed and metrics, and exactly the metric names and units
BENCHMARK.json lists. Then checks that the correctness gate trips (a
perturbed reference must fail every workload), that the benchmark fails
cleanly without the library sources next to it, and that runs leave no
files in the working directory, no scratch directory and no process
behind. Exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
BUILD_ROOT = ROOT / ".bench_build"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def fail(msg):
    print(f"smoke_test: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(args, cwd, run_py=RUN):
    return subprocess.run([sys.executable, str(run_py)] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=1200)


def result_line(proc):
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        obj = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return obj if isinstance(obj, dict) and "metrics" in obj else None


def check_result(workload, trace, proc):
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        fail(f"{where} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    res = result_line(proc)
    if res is None:
        fail(f"{where}: last stdout line is not a result object")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where}: result keys {sorted(res)}")
    if res["correct"] is not True:
        fail(f"{where}: correct is {res['correct']}")
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1):
        fail(f"{where}: attempted {res['attempted']}")
    if not (isinstance(res["failed"], int) and res["failed"] >= 0):
        fail(f"{where}: failed {res['failed']}")
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want_units = {m["name"]: m["unit"] for m in want}
    got = res["metrics"]
    if list(got) != list(want_units):
        missing = set(want_units) - set(got)
        extra = set(got) - set(want_units)
        fail(f"{where}: metric names differ (missing {sorted(missing)}, "
             f"extra {sorted(extra)}, or order)")
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m["unit"] != want_units[name]:
            fail(f"{where}: metric {name} is {m}")
        if not isinstance(m["value"], (int, float)):
            fail(f"{where}: metric {name} value {m['value']!r}")
    if not trace:
        for name, m in got.items():
            if m["value"] == 0:
                fail(f"{where}: end-to-end metric {name} is 0")
    print(f"smoke_test: ok {where}: attempted {res['attempted']}", flush=True)


def daemons_left():
    """pbitree_serverd processes started from this checkout's build."""
    left = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            cmdline = (Path("/proc") / pid / "cmdline").read_bytes()
        except OSError:
            continue
        if str(BUILD_ROOT).encode() in cmdline and b"pbitree_serverd" in cmdline:
            left.append(int(pid))
    return left


def main():
    workloads = [w["name"] for w in SPEC["workloads"]]
    BUILD_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="smoke-", dir=BUILD_ROOT) as scratch:
        cwd = Path(scratch) / "cwd"
        cwd.mkdir()

        for workload in workloads:
            for trace in (0, 1):
                proc = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                            "--trace", str(trace)], cwd)
                check_result(workload, trace, proc)

        # The correctness gate: a wrong reference must fail the run with
        # the wrong-answer exit code and no result.
        for workload in workloads:
            proc = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                        "--trace", "0", "--perturb-reference"], cwd)
            if proc.returncode != 3 or result_line(proc) is not None:
                fail(f"{workload}: perturbed reference gave exit "
                     f"{proc.returncode}, result {result_line(proc)}")
            if "WRONG ANSWER" not in proc.stderr:
                fail(f"{workload}: perturbed reference did not report a wrong answer")
            print(f"smoke_test: ok {workload} gate trips", flush=True)

        # Without the library sources the benchmark must fail, quickly
        # and without a result.
        bare = Path(scratch) / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench")
        proc = run(["--workload", workloads[0], "--seed", "1", "--seconds", "1",
                    "--trace", "0"], bare, run_py=bare / "perfbench" / "run.py")
        if proc.returncode == 0 or result_line(proc) is not None:
            fail("run without sources did not fail cleanly")
        print("smoke_test: ok fails without sources", flush=True)

        if any(cwd.iterdir()):
            fail(f"runs wrote into the working directory: {list(cwd.iterdir())}")
    runs_left = list(BUILD_ROOT.glob("run-*"))
    if runs_left:
        fail(f"scratch directories left behind: {runs_left}")
    if daemons_left():
        fail(f"daemons left running: {daemons_left()}")
    print("smoke_test: all checks passed")


if __name__ == "__main__":
    main()
