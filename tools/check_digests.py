#!/usr/bin/env python3
"""Check the perfbench seed digests against the committed values.

    python3 tools/check_digests.py [--workload W ...]

Runs `python3 perfbench/run.py --workload W --seed S --seconds 0
--trace 0` for every workload in bench/baseline/perfbench_digests.json
(or only the named ones) and compares the printed `digest` line with the
committed value. A digest folds every packet's verdict, bytes, cycle
timing and the final map state, so this is the exact, noise-free check
that a change kept the simulator bit-identical. Exits 1 on any mismatch
or failed run.
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "bench", "baseline", "perfbench_digests.json")
DIGEST = re.compile(r"^digest ([0-9a-f]{16}) \((\w+) across rounds\)$",
                    re.MULTILINE)


def run_digest(workload, seed):
    """(digest, stable) printed by one zero-second perfbench run."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None, f"perfbench exited with {proc.returncode}"
    m = DIGEST.search(proc.stdout)
    if m is None:
        return None, "no digest line in the perfbench output"
    return m.group(1), m.group(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="check only this workload (repeatable)")
    args = ap.parse_args()

    with open(BASELINE) as f:
        baseline = json.load(f)
    want = baseline["digests"]
    names = args.workload or list(want)
    bad = 0
    for name in names:
        if name not in want:
            print(f"{name}: no committed digest")
            bad += 1
            continue
        got, detail = run_digest(name, baseline["seed"])
        if got is None:
            print(f"{name}: FAILED ({detail})")
            bad += 1
        elif got != want[name] or detail != "stable":
            print(f"{name}: MISMATCH digest {got} ({detail}), "
                  f"committed {want[name]}")
            bad += 1
        else:
            print(f"{name}: ok {got}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
