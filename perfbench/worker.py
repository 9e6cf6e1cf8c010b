"""One workload process: set-up, then a single-client closed loop of ops.

Started by run.py, once per measured set-up.  The BLAS thread count is fixed
in the environment before numpy is imported.  The last line of standard
output is one JSON object with this process's measurements.

Untraced (--trace 0): ops run in whole rotations over the functions until
--seconds have passed; op latency covers only the calls into ttfun, not the
output checks.  Traced (--trace 1): the same loop runs untraced for half the
time, then the same ops run again with spans installed, which gives both the
per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_THREADS = 1  # single-threaded ops; never more than nproc

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402  (after the BLAS thread count is fixed)

import spans  # noqa: E402
import workloads  # noqa: E402

# Largest per-layer self time each workload's design predicts (None: no
# prediction).  A traced run reports whether the measurement agrees.
PREDICTED_LARGEST = {
    "deep_build": "tensorized.rank_profile.self_s",
    "query": "localspace.max_abs.self_s",
    "corpus": None,
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True,
                   choices=sorted(PREDICTED_LARGEST))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() when the parent started it")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--perturb", type=float, default=0.0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Warm BLAS: the first SVD in a process pays for thread-pool start-up.
    warm = np.random.default_rng(0).standard_normal((128, 128))
    np.linalg.svd(warm @ warm.T)

    tmpdir = os.path.join(HERE, "out", f"tmp-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](
            args.seed, args.tiny, args.perturb, tmpdir)
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s}
        if not args.setup_only:
            result.update(measure(wl, args))
            result["env"] = environment(args)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


class Loop:
    """Closed-loop op runner; counts attempts and failures."""

    def __init__(self, wl, recorder=None):
        self.wl = wl
        self.rec = recorder
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.latencies = []

    def op(self, i):
        self.attempted += 1
        if self.rec is not None:
            self.rec.op_id = i
        start = time.perf_counter()
        try:
            out = self.wl.execute(i)
        except Exception as exc:  # an op that raises is a failed op
            self._fail(i, [f"raised {type(exc).__name__}: {exc}"])
            return
        self.latencies.append(time.perf_counter() - start)
        if self.rec is not None:
            self.rec.paused = True
        try:
            bad = self.wl.check(i, out)
        except Exception as exc:  # unreadable output fails the op
            bad = [f"check raised {type(exc).__name__}: {exc}"]
        finally:
            if self.rec is not None:
                self.rec.paused = False
        if bad:
            self._fail(i, bad)

    def _fail(self, i, messages):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"op {i} ({self.wl.func(i)}): "
                                 + "; ".join(messages))

    def rotations(self, seconds):
        """Whole rotations over the functions until `seconds` have passed.

        Returns the op count and the loop's wall time.
        """
        start = time.perf_counter()
        i = 0
        while True:
            for _ in range(len(self.wl.order)):
                self.op(i)
                i += 1
            wall = time.perf_counter() - start
            if wall >= seconds:
                return i, wall


def measure(wl, args):
    if not args.trace:
        loop = Loop(wl)
        ops, wall = loop.rotations(args.seconds)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {"latencies": loop.latencies, "wall_s": wall, "ops": ops,
                "attempted": loop.attempted, "failed": loop.failed,
                "failures": loop.failures, "peak_rss_mb": rss_kb / 1024.0}

    plain = Loop(wl)
    ops, _ = plain.rotations(args.seconds / 2.0)
    rec = spans.Recorder()
    saved = spans.install(rec)
    traced = Loop(wl, rec)
    try:
        for i in range(ops):
            traced.op(i)
    finally:
        spans.uninstall(saved)
    overhead = sum(traced.latencies) / sum(plain.latencies) - 1.0
    layer = spans.layer_metrics(rec, ops, overhead)
    path = os.path.join(HERE, "out",
                        f"spans-{args.workload}-seed{args.seed}.jsonl")
    rec.write(path)
    self_times = {k: v["value"] for k, v in layer.items()
                  if k.endswith(".self_s")}
    return {"layer": layer, "ops": ops,
            "attempted": plain.attempted + traced.attempted,
            "failed": plain.failed + traced.failed,
            "failures": plain.failures + traced.failures,
            "largest_self_s": max(self_times, key=self_times.get),
            "predicted_largest": PREDICTED_LARGEST[args.workload],
            "spans_file": os.path.relpath(path, ROOT),
            "spans": len(rec.spans)}


def environment(args):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "numpy": np.__version__,
            "blas": openblas, "python": sys.version.split()[0],
            "seed": args.seed}


if __name__ == "__main__":
    sys.exit(main())
