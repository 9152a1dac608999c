#!/usr/bin/env python3
"""Build and run the eHDL end-to-end benchmark (see perfbench/LEDGER.md).

    python3 perfbench/run.py --workload sq-saturated --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs one workload and prints the
benchmark's lines; the last line is the result JSON. Its metric names are
checked against BENCHMARK.json: end_to_end for --trace 0, per_layer for
--trace 1. Temporary files (native AOT modules, compiler temporaries) stay
under the build directory.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"eHDL sources not found under {ROOT}/src")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=BUILD_TIMEOUT_S).returncode
        if rc != 0:
            fail(f"build step failed ({rc}): {' '.join(cmd)}", 1)
    return os.path.join(build_dir, "ehdl_perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    rows = bench["per_layer"] if trace else bench["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    build_dir = os.path.join(target, "perfbench")
    binary = build(build_dir)

    scratch = os.path.join(target, "perfbench-scratch")
    tmp = os.path.join(scratch, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp  # host compiler temporaries of the native backend
    env["EHDL_AOT_CACHE"] = os.path.join(scratch, "aot-cache-default")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    # Own process group, so a timeout also stops the benchmark's children
    # (the warm-load probe, a host compiler building a native module).
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        fail(f"benchmark exited with {proc.returncode}", 1)
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, unit mismatch {wrong}", 3)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
