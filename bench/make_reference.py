"""Record reference.json, the output oracle, from the current program.

Usage (from the repository root):

    PYTHONPATH=src python3 bench/make_reference.py [--queries-only]

Runs every query candidate first, in a fresh process as the benchmark
does, and stores the digest of its output; the pools are also stored from
cheapest to dearest as timed here, so that the benchmark can draw the same
spread of costs for every seed.  Then scans each band one prime at a time and stores, per prime, the digest of
the item it yields, ``none`` when it is scanned without an item, or
``skip:<reason>``.  Then scans each whole band at once and checks it with
the oracle, which proves the per-prime entries compose.  Also fixes the
query candidate pools and stores the digest of each candidate's output.
With ``--queries-only`` the scan entries of the existing reference.json
are kept and only the query pools are recorded again.
Rerun only when an output is meant to change, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import random
import sys
import time

from child import call
from galim import arith, cli
import oracle
from workloads import IRREGULAR_BAND, SCAN_BANDS, primes_between


def _run(argv: list[str]) -> str:
    rc, out, err, _ = call(cli.main, argv)
    if rc != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {rc}: {err}")
    return out


def scan_band(kind: str, hi: int) -> dict[str, str]:
    entries = {}
    for p in primes_between(7, hi):
        report = json.loads(_run(["scan", kind, "--from", str(p), "--to", str(p), "--format", "json"]))
        items = report["items"]
        skips = [n for n in report["notes"] if n.startswith("skipped ")]
        if len(items) > 1 or (items and skips) or len(skips) > 1:
            raise RuntimeError(f"scan {kind} at p={p} gave {len(items)} items, notes {skips}")
        if items:
            entries[str(p)] = oracle.digest(items[0])
        elif skips:
            entries[str(p)] = oracle.SKIP + skips[0][len("skipped "):].split(":")[0]
        else:
            entries[str(p)] = oracle.NO_ITEM
    return entries


def irregular_band(hi: int) -> dict:
    report = json.loads(_run(["irregular", "--max", str(hi), "--format", "json"]))
    found = {item["p"]: oracle.digest(item) for item in report["items"]}
    return {"hi": hi, "items": {str(p): found.get(p, oracle.NO_ITEM) for p in primes_between(5, hi)}}


def query_pools() -> dict[str, list[str]]:
    """Candidate argv strings per pool.  Pools of class-group queries use
    disjoint primes so that no query reuses another's cached class group."""
    mod3 = lambda lo, hi: [p for p in primes_between(lo, hi) if p % 4 == 3]  # noqa: E731
    irregular = [p for p in primes_between(100, 1300) if arith.irregular_indices(p)]
    return {
        "classgroup": [f"classgroup -p {p}" for p in mod3(20000, 40000)[::4]],
        "theta": [f"theta -p {p} --coeffs 120 --char 1" for p in mod3(1000, 19999)[::5]],
        "witness-lr": [f"witness lr -p {p}" for p in primes_between(7, 3000)],
        "witness-hida": [f"witness hida -p {p}" for p in mod3(200, 999)],
        "witness-borel": [f"witness borel -p {p}" for p in irregular],
        "dims": [f"dims --new {n}" for n in sorted(random.Random(0).sample(range(1000, 200001), 250))],
    }


def record_queries(reference: dict) -> None:
    """Digest of every candidate's output and each pool in cost order.

    Each pool runs in a shuffled order, one call per candidate, so that
    shared caches warm as they do in a benchmark repetition.
    """
    reference["queries"], reference["query_rank"] = {}, {}
    for pool, keys in query_pools().items():
        digests, seconds = {}, {}
        for key in random.Random(pool).sample(keys, len(keys)):
            start = time.perf_counter()
            out = _run(key.split())
            seconds[key] = time.perf_counter() - start
            digests[key] = oracle.digest(out)
        reference["queries"][pool] = digests
        reference["query_rank"][pool] = sorted(keys, key=seconds.__getitem__)
        print(f"queries {pool}: {len(keys)} candidates, {sum(seconds.values()):.1f} s", file=sys.stderr)


def main() -> int:
    queries_only = sys.argv[1:] == ["--queries-only"]
    reference = oracle.load_reference() if queries_only else {"scan": {}}
    # first, while every cache is cold as in a benchmark repetition
    record_queries(reference)
    if not queries_only:
        for kind, hi in SCAN_BANDS.items():
            reference["scan"][kind] = scan_band(kind, hi)
            print(f"scan {kind}: {len(reference['scan'][kind])} primes", file=sys.stderr)
        reference["irregular"] = irregular_band(IRREGULAR_BAND)
    for kind, hi in SCAN_BANDS.items():
        out = _run(["scan", kind, "--from", "7", "--to", str(hi), "--format", "json"])
        errors = oracle.check_scan(kind, 7, hi, out, reference)
        if errors:
            raise RuntimeError(f"whole-band scan {kind} disagrees: {errors}")
    oracle.REFERENCE_PATH.write_text(json.dumps(reference, sort_keys=True, indent=0) + "\n")
    print(f"wrote {oracle.REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
