"""Smoke check of the benchmark itself, at tiny problem sizes.

    python3 perfbench/smoke.py

Checks that an untraced run prints every end-to-end metric of
BENCHMARK.json with its unit and no failed op, that a traced run prints
every per-layer metric with its unit, that a run with every oracle perturbed
counts failed ops on each workload, and that a directory holding only the
benchmark (no ttfun sources) makes it exit nonzero without a result.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("deep_build", "query", "corpus")


def bench(*extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--seed", "0", "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result(proc):
    if proc.returncode != 0:
        raise SystemExit(f"benchmark exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def missing(declared, printed):
    """Declared metrics absent from a run of all workloads, or mis-united."""
    out = []
    for w in WORKLOADS:
        for m in declared:
            got = printed.get(f"{w}.{m['name']}")
            if got is None or got["unit"] != m["unit"]:
                out.append(f"{w}.{m['name']} [{m['unit']}]")
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []

    text, res = result(bench("--tiny", "--trace", "0"))
    problems += ["not printed: " + m
                 for m in missing(spec["end_to_end"], res["metrics"])]
    problems += [f"{w} failed_frac not printed" for w in WORKLOADS
                 if f"{w} failed_frac = " not in text]
    if not res["correct"] or res["failed"]:
        problems.append(f"unperturbed run failed {res['failed']} ops:\n{text}")

    _, res = result(bench("--tiny", "--trace", "1"))
    problems += ["not printed: " + m
                 for m in missing(spec["per_layer"], res["metrics"])]

    for w in WORKLOADS:
        text, res = result(bench("--tiny", "--perturb-oracle",
                                 "--workload", w))
        if res["correct"] or res["failed"] == 0:
            problems.append(f"{w}: perturbed oracle failed no op")

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = bench("--workload", "corpus", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("ran without the ttfun sources")

    for p in problems:
        print("PROBLEM " + p)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
