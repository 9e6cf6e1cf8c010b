"""ttfun benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload query --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py                       # all three workloads

Each workload runs in its own single-threaded process (one BLAS thread, one
client, the next op starts when the last one ends).  Set-up time is measured
in SETUPS separate processes and reported as their median.  Every op's
outputs are checked; a failed check counts the op as failed and the run goes
on.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Needs the ttfun sources in src/ next
to this directory; it builds nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("deep_build", "query", "corpus")
SETUPS = 3  # processes whose set-up time is measured per workload
DEADLINE_S = 170  # per workload, for every process it starts
TAIL_BEYOND = 10  # samples the tail percentile must leave above it


class BenchError(Exception):
    pass


def worker(workload, args, deadline, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    if args.perturb_oracle:
        cmd += ["--perturb", "1e-3"]
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} process did not finish in time")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} process exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples above it."""
    xs = sorted(latencies)
    k = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


def end_to_end(workload, args):
    deadline = time.monotonic() + DEADLINE_S
    setups = [worker(workload, args, deadline, setup_only=True)["setup_s"]
              for _ in range(SETUPS - 1)]
    main = worker(workload, args, deadline)
    setups.append(main["setup_s"])
    lat = main["latencies"]
    if not lat:
        raise BenchError(f"{workload}: no op completed")
    tail_s, pct, beyond = tail(lat)
    metrics = {
        "op_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "op_tail_ms": {"value": tail_s * 1e3, "unit": "ms"},
        "ops_per_s": {"value": len(lat) / main["wall_s"], "unit": "1/s"},
        "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }
    info = dict(main["env"], workload=workload,
                tail=f"p{pct:.1f} of {len(lat)} ops, {beyond} beyond",
                setups_s=setups,
                failed_frac=main["failed"] / main["attempted"])
    return main, metrics, info


def traced(workload, args):
    main = worker(workload, args, time.monotonic() + DEADLINE_S)
    predicted = main["predicted_largest"]
    verdict = ("no prediction" if predicted is None else "as predicted"
               if main["largest_self_s"] == predicted else
               f"MISMATCH: predicted {predicted}")
    info = {"workload": workload, "ops_traced": main["ops"],
            "spans": main["spans"], "spans_file": main["spans_file"],
            "largest_self_s": f"{main['largest_self_s']} ({verdict})"}
    return main, main["layer"], info


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small problem sizes (smoke check only)")
    p.add_argument("--perturb-oracle", action="store_true",
                   help="scale every oracle by 1+1e-3 (smoke check only)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ttfun", "__init__.py")):
        print("error: ttfun sources not found under src/", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    run = traced if args.trace else end_to_end
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            res, metrics, info = run(name, args)
            print("info " + json.dumps(info))
            for msg in res["failures"]:
                print(f"FAILED {name} {msg}")
            if not args.trace:
                frac = info["failed_frac"]
                print(f"{name} failed_frac = {frac:.6g} 1")
            for key, m in metrics.items():
                print(f"{name} {key} = {m['value']:.6g} {m['unit']}")
            prefix = f"{name}." if len(names) > 1 else ""
            total["metrics"].update(
                {prefix + k: v for k, v in metrics.items()})
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    total["correct"] = total["failed"] == 0
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
