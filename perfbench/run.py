#!/usr/bin/env python3
"""Repository benchmark: builds the library, pbitree_serverd and the
measuring program from source, runs one workload and prints its result.

    python3 perfbench/run.py --workload join_cold --seed 1 --seconds 40 --trace 0

Workloads: join_cold and serve_mixed (see perfbench/README.md). The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. A wrong answer or a
failed run exits non-zero without printing a result.

Everything is written under .bench_build/ in the checkout: the CMake
build, a per-run scratch directory (removed on every exit path) and the
span files of traced runs. No fixed port is used; the daemon listens on
an ephemeral port and is reaped however the run ends.
"""

import argparse
import ctypes
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
CMAKE_DIR = BUILD_ROOT / "cmake"
WORKLOADS = ("join_cold", "serve_mixed")
MEASURE_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (cheap once the cache exists, and it keeps a reused
    build directory in step with CMakeLists.txt), then builds the
    measuring program and the daemon, a no-op when nothing changed.
    Compiler output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("the library sources (src/) are not next to perfbench/; "
            "run from a full checkout")
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(CMAKE_DIR),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(CMAKE_DIR), "-j", jobs, "--target",
                    "perfbench_measure", "pbitree_serverd"],
                   stdout=sys.stderr, check=True)


def source_id():
    """The git commit when the checkout is a repository, else a digest
    of the sources the build compiles."""
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=10)
        lines = git.stdout.splitlines()
        if git.returncode == 0 and len(lines) == 2 and Path(lines[0]) == ROOT:
            return "git:" + lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def become_subreaper():
    """Orphaned grandchildren (a daemon whose parent died) are reparented
    to this process, so they can be killed and waited for here."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def reap_everything(proc):
    """Kills the measuring process's group (it and any daemon it
    started), then waits for every child, orphans included."""
    if proc is not None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--perturb-reference", action="store_true",
                        help="test hook: corrupt the reference answers so "
                             "the correctness gate must fail the run")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    # Turn SIGTERM/SIGINT into an exception so the cleanup below runs.
    def interrupted(signum, _frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, interrupted)
    signal.signal(signal.SIGINT, interrupted)

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2
    become_subreaper()
    trace_dir = BUILD_ROOT / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD_ROOT))
    proc = None
    try:
        cmd = [str(CMAKE_DIR / "perfbench_measure"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--tmp", str(tmp), "--trace-dir", str(trace_dir),
               "--serverd", str(CMAKE_DIR / "pbitree_serverd"),
               "--source", source_id()]
        if args.perturb_reference:
            cmd.append("--perturb-reference")
        proc = subprocess.Popen(cmd, cwd=tmp, stdout=subprocess.PIPE,
                                  text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=MEASURE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log(f"perfbench_measure exceeded {MEASURE_TIMEOUT_S} s")
            return 2
        if proc.returncode != 0:
            sys.stderr.write(out)
            log(f"perfbench_measure failed with exit code {proc.returncode}")
            return proc.returncode if proc.returncode > 0 else 2
        lines = out.rstrip("\n").split("\n")
        sys.stdout.write("\n".join(lines) + "\n")
        sys.stdout.flush()
        return 0
    finally:
        reap_everything(proc)
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
