#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload on one CPU.

    python3 perfbench/run.py --workload frozen_mix --seed 1 --seconds 15 --trace 0

Every argument goes to the benchmark binary unchanged (see README.md).
The build output goes to $CARGO_TARGET_DIR, or perfbench/target.

The run is pinned to the lowest CPU this process may use. On a host
whose second CPU comes and goes, the federated workload's hand-offs
between the client and the peer-server threads otherwise swing its
latency by 2-3x from one run to the next. The unpinned CPU count and a
calibration spin taken before pinning are handed to the binary, which
prints them with its result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    """Builds the release binary and returns its path, or None."""
    proc = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
            "--message-format=json-render-diagnostics",
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    if proc.returncode != 0:
        return None
    executable = None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            if msg["target"]["name"] == "rps-perfbench":
                executable = msg["executable"]
    return executable


def main():
    executable = build()
    if executable is None:
        print("benchmark build failed", file=sys.stderr)
        return 1
    cpus = sorted(os.sched_getaffinity(0))
    calibration = subprocess.run(
        [executable, "--calibrate"], stdout=subprocess.PIPE, text=True
    )
    if calibration.returncode != 0:
        return calibration.returncode
    env = dict(
        os.environ,
        PERFBENCH_NPROC=str(len(cpus)),
        PERFBENCH_CPU=str(cpus[0]),
        PERFBENCH_EFFECTIVE_CPUS=calibration.stdout.strip(),
    )
    os.sched_setaffinity(0, {cpus[0]})
    return subprocess.run([executable] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
