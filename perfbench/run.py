#!/usr/bin/env python3
"""Run one benchmark workload and print its figures.

    python3 perfbench/run.py --workload paper_switch --seed 1 --seconds 20 --trace 0

Run from the root of a checkout of this repository. The script builds
perfbench/perfbench.exe with dune (the first run in a fresh checkout
compiles the libraries it needs), runs it for one workload and seed, and
passes its report through. The last line of standard output is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see BENCHMARK.json). The exit code is 0 only when every
correctness check of the run passed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
# dune and Serve.run (its node reports) write under TMPDIR; keep that in
# the checkout.
TMP = ".perfbench_tmp"
# A run must end within 180 s; leave room for start-up and the no-op build.
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(env):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout of the repository "
             "(no dune-project or lib/ here)", 2)
    if shutil.which("dune") is None:
        fail("dune is not on PATH", 2)
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/perfbench.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(proc.stdout)
        fail("build failed", 3)


def run(args, env, timeout_s):
    cmd = [EXE, args.workload, str(args.seed), str(args.seconds), str(args.trace)]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    # On a timeout the child's whole process group goes down: the traced
    # run forks the node processes of a live deployment.
    expired = threading.Event()

    def expire():
        expired.set()
        os.killpg(proc.pid, signal.SIGKILL)

    timer = threading.Timer(timeout_s, expire)
    timer.start()
    lines = proc.stdout.read().splitlines()
    _, status = os.waitpid(proc.pid, 0)
    timer.cancel()
    if expired.is_set():
        fail(f"run killed after {timeout_s} s", 4)
    return os.waitstatus_to_exitcode(status), lines


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=os.path.abspath(TMP))
    os.makedirs(TMP, exist_ok=True)
    try:
        build(env)
        code, lines = run(args, env, RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)

    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    if not isinstance(result, dict) or "metrics" not in result:
        sys.stdout.write("\n".join(lines) + "\n")
        fail(f"perfbench.exe exited {code} without a result", 5)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(0 if code == 0 and result.get("correct") is True else 1)


if __name__ == "__main__":
    main()
