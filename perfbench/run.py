#!/usr/bin/env python3
"""Builds the STRIP benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload pta_replay --seed 1 --seconds 10 --trace 0

Workloads: pta_replay, server_feed, sql_analytics (see perfbench/README.md).
The engine and strip_perfbench are compiled (Release) into the directory named
by CARGO_TARGET_DIR, or .bench_build when it is unset. The last line of
standard output is the result JSON; exit status is non-zero, with no
result line, when the build, a run or a correctness gate fails.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(root, build) if not os.path.isabs(build) else build
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("run.py: engine sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr; stdout is reserved for results.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    binary = os.path.join(build, "strip_perfbench")
    work = os.path.join(build, "work")
    cmd = [binary] + argv + ["--work-dir", work]
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
