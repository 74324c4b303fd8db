#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cold_start --seed 1 --seconds 30 --trace 0

Builds perfbench/bench.exe with dune, prints a manifest line (command, git
revision or source digest, seed, OCaml version, CPU count), then relays the
benchmark's output. Its last line is the result object
{"correct", "attempted", "failed", "metrics"}. Exits non-zero, without a
result line, when the checkout cannot be built or the result is malformed.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("cold_start", "chaos_churn", "plan_rollout")
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175
SOURCE_DIRS = ("bench", "bin", "lib", "perfbench")


def run(cmd, timeout, env=None):
    """Run cmd in its own process group; kill the whole group and wait for
    it if cmd times out or this script is interrupted or terminated."""
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out, err


def source_digest():
    """SHA-256 over every tracked-looking source file, for checkouts without git."""
    h = hashlib.sha256()
    paths = ["dune-project"]
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith(("_", ".")))
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        if os.path.isfile(path):
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_rev():
    if not os.path.isdir(".git"):
        return None
    try:
        code, out, _ = run(["git", "rev-parse", "HEAD"], 30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.strip() if code == 0 else None


def ocaml_version():
    try:
        code, out, _ = run(["ocamlfind", "ocamlopt", "-version"], 30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.strip() if code == 0 else None


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (
        isinstance(result, dict)
        and set(result) == {"correct", "attempted", "failed", "metrics"}
        and isinstance(result["attempted"], int)
        and result["attempted"] >= 1
        and all(
            set(m) == {"value", "unit"} for m in result["metrics"].values()
        )
    )


def main():
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: run from the root of a full source checkout", file=sys.stderr)
        return 2

    # The shared dune cache lives outside the checkout; keep every write here.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        code, out, err = run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            BUILD_TIMEOUT_S,
            env,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if code != 0:
        sys.stderr.write(out + err)
        print("run.py: build failed", file=sys.stderr)
        return 1

    manifest = {
        "command": sys.argv,
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ocaml": ocaml_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }
    print("manifest " + json.dumps(manifest), flush=True)

    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        code, out, err = run(cmd, RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    sys.stderr.write(err)
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if code != 0 or not valid_result(lines[-1]):
        print(f"run.py: benchmark failed (exit {code})", file=sys.stderr)
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
