"""One repetition of a workload in a fresh interpreter.

Usage (from the repository root, with PYTHONPATH=src):

    python3 bench/child.py --workload NAME --seed N [--spans FILE]

Imports galim.cli first, so the parent can time set-up from process start
to the moment the import returns, then builds the invocations from the
seed, calls ``galim.cli.main(argv)`` on each with stdout and stderr
captured, and checks every output after the last call.  With ``--spans``
the calls run traced and the spans are written to FILE.  Prints one JSON
object with the timings, checks and, when traced, the layer statistics.
"""

import time

import galim.cli

READY = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import oracle  # noqa: E402
from calibrate import probe  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import make_invocations  # noqa: E402

# failure reasons reported per repetition, enough to diagnose
MAX_REASONS = 5
# one host-speed probe after each invocation, and one more per this many
# seconds it took, so that the probes sample the repetition evenly
PROBE_EVERY_S = 0.05


def call(main, argv) -> tuple[int | None, str, str, float]:
    """One CLI invocation: (exit code, or None if it raised; stdout; stderr; seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except Exception:  # a failed invocation, reported with its traceback
            traceback.print_exc()
            rc = None
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def run_rep(invocations, reference, tracer: Tracer | None = None) -> dict:
    """Time every invocation, then check every output."""
    latencies, outputs, probes = [], [], []
    if tracer is not None:
        tracer.install()
    try:
        for i, inv in enumerate(invocations):
            if tracer is not None:
                tracer.invocation = i
            rc, out, err, seconds = call(galim.cli.main, inv.argv)
            latencies.append(seconds)
            outputs.append((rc, out, err))
            probes += [probe() for _ in range(1 + int(seconds / PROBE_EVERY_S))]
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss = peak_rss_mb()
    failures = []
    for inv, (rc, out, err) in zip(invocations, outputs):
        reasons = oracle.check(inv, rc, out, reference)
        if reasons:
            detail = err.strip().splitlines()[-1:] if rc != 0 else []
            failures.append(f"{' '.join(inv.argv)}: {'; '.join(reasons[:1] + detail)}")
    return {
        "latencies": latencies,
        "probes": probes,
        "peak_rss_mb": rss,
        "attempted": len(invocations),
        "failed": len(failures),
        "reasons": failures[:MAX_REASONS],
    }


def layer_stats(tracer: Tracer, invocations, latencies) -> dict:
    """Per-layer counts and self times of a traced repetition."""
    layers, per_call = self_times(tracer.spans)
    stats = {f"{layer}.calls": n for layer, (n, _) in layers.items()}
    stats.update({f"{layer}.self_s": s for layer, (_, s) in layers.items()})
    for layer in ("quadforms.reduced_forms", "quadforms.class_group"):
        info = tracer.cache_info(layer)
        lookups = info.hits + info.misses
        stats[f"{layer}.cache_size"] = info.currsize
        stats[f"{layer}.hit_ratio"] = info.hits / lookups if lookups else 0.0
    stats["dickson.closure.elements"] = tracer.closure_elements
    considered = tracer.scan_considered
    stats["witness.scan.skipped_frac"] = tracer.scan_skipped / considered if considered else 0.0
    slowest = sorted(range(len(invocations)), key=lambda i: -latencies[i])[:5]
    return {
        "layers": stats,
        "slowest": [
            {
                "argv": " ".join(invocations[i].argv),
                "seconds": latencies[i],
                "dominant": max(per_call[i].items(), key=lambda kv: kv[1])[0],
            }
            for i in slowest
        ],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args()

    reference = oracle.load_reference()
    invocations = make_invocations(args.workload, args.seed, reference["query_rank"])
    tracer = Tracer() if args.spans else None
    rep = run_rep(invocations, reference, tracer)
    rep["ready"] = READY
    rep["backend"] = galim.kernels.active_backend()
    rep["numpy"] = sys.modules["numpy"].__version__
    if tracer is not None:
        rep.update(layer_stats(tracer, invocations, rep["latencies"]))
        tracer.write_spans(args.spans)
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
