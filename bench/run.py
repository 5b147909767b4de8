"""galim benchmark: one workload, measured for a fixed time, outputs checked.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition is a fresh interpreter (bench/child.py) because every CLI
user pays for cold caches and the lazy prime sieve.  Repetitions of the
same inputs run back to back until S seconds have passed.  Metrics are
medians over the repetitions.  On a shared host the same code runs up to
1.5 times slower in phases lasting from seconds to minutes, so every time
is normalised to a reference host speed: divided by the repetition's host
factor, the mean time of the fixed probe task run between its invocations
over the probe's time on the reference host (bench/calibrate.py).  With
``--trace 0`` the last line is
the end-to-end metrics; with ``--trace 1`` it is the per-layer metrics of a
traced repetition, with untraced repetitions alternating to give the
tracing overhead.  Lines before the last record the environment and diagnosis; every
repetition's raw figures go to .bench_out/reps-*.json.
Exits non-zero without a result when galim cannot be found or a
repetition crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
MIN_REPS = 4
# every run ends within this many seconds, whatever --seconds says
DEADLINE_S = 170

PER_LAYER = (
    "arith.factorize.calls", "arith.factorize.self_s",
    "arith.primes_up_to.calls", "arith.primes_up_to.self_s",
    "arith.is_prime.calls", "arith.is_prime.self_s",
    "arith.bernoulli_mod_p.self_s", "kernels.bernoulli_table_mod.self_s",
    "kernels.eta_scan.self_s",
    "quadforms.reduced_forms.self_s", "quadforms.reduced_forms.cache_size",
    "quadforms.class_number_analytic.self_s",
    "quadforms.class_group.calls", "quadforms.class_group.self_s",
    "quadforms.class_group.hit_ratio", "quadforms.class_group.cache_size",
    "quadforms.theta_coefficients.self_s", "dims.dim_S2_new_Gamma0.self_s",
    "kernels.closure_codes.self_s", "dickson.closure.self_s",
    "dickson.closure.elements", "dickson.classify.self_s",
    "witness.scan.self_s", "witness.scan.skipped_frac",
    "cli.main.self_s",
)


class RepFailed(RuntimeError):
    pass


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", ".cache_size", ".elements")):
        return "count"
    return "ratio"


def pinned_env() -> dict[str, str]:
    """The environment every repetition gets: the default backend and
    closure budget, and galim found from src/ as the tier-1 tests find it."""
    env = {k: v for k, v in os.environ.items() if k not in ("GALIM_BACKEND", "GIL_MAX_CLOSURE")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(env, deadline: float, workload: str, seed: int, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload, "--seed", str(seed)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"repetition did not end within {DEADLINE_S} s of the start") from exc
    if proc.returncode != 0:
        raise RepFailed(proc.stderr.strip()[-2000:])
    rep = json.loads(proc.stdout.splitlines()[-1])
    factor = statistics.fmean(rep["probes"]) / REFERENCE_S
    rep["host_factor"] = factor
    rep["raw_wall_s"] = sum(rep["latencies"])
    rep["latencies"] = [t / factor for t in rep["latencies"]]
    rep["setup_s"] = (rep["ready"] - started) / factor
    rep["wall_s"] = rep["raw_wall_s"] / factor
    return rep


def environment(seed: int, rep: dict) -> dict:
    sha = "unknown"  # an exported checkout has no history
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "numpy": rep["numpy"],
        "backend": rep["backend"],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def latencies_ms(reps: list[dict]) -> list[float]:
    return [1000 * t for rep in reps for t in rep["latencies"]]


def end_to_end(reps: list[dict]) -> dict[str, tuple[float, str]]:
    samples = latencies_ms(reps)
    deciles = statistics.quantiles(samples, n=10)
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "op_p50_ms": (statistics.median(samples), "ms"),
        "op_p90_ms": (deciles[8], "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }


def per_layer(plain: list[dict], traced: list[dict]):
    """Layer metrics from the traced repetition with the median wall time."""
    rep = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
    layers = rep["layers"]
    out = {name: (layers.get(name, 0), unit(name)) for name in PER_LAYER}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    out["trace.overhead_frac"] = (traced_wall / plain_wall - 1, "ratio")
    out["trace.wall_s"] = (rep["raw_wall_s"], "s")
    listed = sum(v for k, (v, _) in out.items() if k.endswith(".self_s"))
    all_self = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    out["trace.other_self_s"] = (all_self - listed, "s")
    return out, rep


def self_time_gap(rep: dict) -> float:
    """|sum of all self times - traced wall| as a share of the traced wall, as measured."""
    all_self = sum(v for k, v in rep["layers"].items() if k.endswith(".self_s"))
    return abs(all_self - rep["raw_wall_s"]) / rep["raw_wall_s"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "galim" / "cli.py").is_file():
        print(f"galim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + DEADLINE_S
    env = pinned_env()
    # compile bytecode and warm the file cache, which users do not pay per run
    warm = subprocess.run([sys.executable, "-c", "import galim.cli"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=DEADLINE_S / 2)
    if warm.returncode != 0:
        print(f"cannot import galim.cli:\n{warm.stderr}", file=sys.stderr)
        return 2

    plain: list[dict] = []
    traced: list[dict] = []
    spans = OUT_DIR / f"spans-{args.workload}.jsonl"
    start = time.monotonic()
    try:
        while True:
            plain.append(spawn(env, deadline, args.workload, args.seed))
            if args.trace:
                traced.append(spawn(env, deadline, args.workload, args.seed, spans))
            elapsed = time.monotonic() - start
            # stop before a cycle that would end past --seconds
            cycle = elapsed / len(plain)
            if elapsed + cycle > args.seconds and (args.trace or len(plain) >= MIN_REPS):
                break
    except RepFailed as exc:
        print(f"repetition failed: {exc}", file=sys.stderr)
        return 1

    OUT_DIR.mkdir(exist_ok=True)
    raw = OUT_DIR / f"reps-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    raw.write_text(json.dumps({"plain": plain, "traced": traced}))
    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    correct = failed == 0
    print("# env " + json.dumps(environment(args.seed, plain[0]), sort_keys=True))
    print(f"# repetitions: {len(plain)} untraced, {len(traced)} traced; "
          f"{attempted} invocations, failed_frac {failed / attempted:.6g}")
    for reason in sorted({r for rep in reps for r in rep["reasons"]})[:10]:
        print(f"# failed: {reason}")
    if args.trace:
        metrics, rep = per_layer(plain, traced)
        gap = max(self_time_gap(r) for r in traced)
        correct = correct and gap < 0.01
        top = sorted(((v, k) for k, v in rep["layers"].items() if k.endswith(".self_s")), reverse=True)
        print("# self-time sum vs traced wall: worst gap %.3g%%" % (100 * gap))
        print("# top self times: " + ", ".join(f"{k} {v:.3f}s" for v, k in top[:5]))
        for slow in rep["slowest"]:
            print(f"# slow call {slow['seconds']:.3f}s dominated by {slow['dominant']}: {slow['argv']}")
        print(f"# spans written to {spans.relative_to(ROOT)}")
    else:
        metrics = end_to_end(plain)
        print(f"# {len(latencies_ms(plain))} latency samples; as measured, before normalising: "
              f"median wall {statistics.median(r['raw_wall_s'] for r in plain):.4f} s, "
              f"median host factor {statistics.median(r['host_factor'] for r in plain):.4f}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": u} for name, (value, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
