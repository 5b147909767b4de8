"""Output checks against reference.json, always run outside timed regions.

reference.json was recorded from the program by make_reference.py.  It
holds, for every prime of each scan band, either the digest of the item
the scan emits for that prime or the reason it is skipped, so any window
is checked item by item and its aggregates are recomputed from the checked
items.  Query outputs are compared by digest of the whole text; Dickson
outputs by group order and label, which conjugation and scaling of the
generators must not change.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

from workloads import Invocation, primes_between

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Scan entries that are neither an item digest nor a skip reason: the
# prime was scanned and produced no item (every eta prime, expected).
NO_ITEM = "none"
SKIP = "skip:"


def digest(value) -> str:
    """Short SHA-256 of a text, or of a JSON value in canonical form."""
    if not isinstance(value, str):
        value = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(value.encode()).hexdigest()[:16]


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _aggregate_notes(kind: str, items: list, scanned: int) -> list[str]:
    """The `aggregate` notes galim prints, recomputed from checked items."""
    agg: dict[str, object] = {"count": len(items)}
    if kind == "borel":
        agg["irregular_primes"] = [w["p"] for w in items]
    elif kind == "lr" and items:
        worst = max(items, key=lambda w: w["linnik_ratio"])
        agg["max_linnik_ratio"] = worst["linnik_ratio"]
        agg["max_linnik_ratio_at"] = worst["p"]
    elif kind == "hida" and items:
        agg["max_class_number"] = max(w["h"] for w in items)
    elif kind == "eta":
        agg["counterexamples"] = len(items)
        agg["scanned"] = scanned
    elif kind == "brauer_siegel" and items:
        agg["ratio_min"] = min(r["ratio"] for r in items)
        agg["ratio_max"] = max(r["ratio"] for r in items)
    return [f"aggregate {k}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(agg.items())]


def _check_items(items: list, expected: list[tuple[int, str]]) -> list[str]:
    if len(items) != len(expected):
        return [f"{len(items)} items, expected {len(expected)}"]
    for item, (p, want) in zip(items, expected):
        if item.get("p") != p or digest(item) != want:
            return [f"item for p={item.get('p')} does not match the reference for p={p}"]
    return []


def check_scan(kind: str, lo: int, hi: int, out: str, reference: dict) -> list[str]:
    band = reference["scan"][kind]
    expected: list[tuple[int, str]] = []
    skipped: Counter = Counter()
    scanned = 0
    for p in primes_between(lo, hi):
        entry = band.get(str(p))
        if entry is None:
            return [f"p={p} lies outside the reference band of {kind}"]
        if entry.startswith(SKIP):
            skipped[entry[len(SKIP):]] += 1
            continue
        scanned += 1
        if entry != NO_ITEM:
            expected.append((p, entry))
    report = json.loads(out)
    errors = []
    if report["parameters"] != {"kind": kind, "from": lo, "to": hi}:
        errors.append(f"parameters {report['parameters']}")
    errors += _check_items(report["items"], expected)
    if not errors:
        notes = [f"skipped {r}: {c}" for r, c in sorted(skipped.items())]
        notes += _aggregate_notes(kind, report["items"], scanned)
        if report["notes"] != notes:
            errors.append(f"notes {report['notes']} != {notes}")
    return errors


def check_irregular(n: int, out: str, reference: dict) -> list[str]:
    table = reference["irregular"]
    if n > table["hi"]:
        return [f"--max {n} lies outside the reference band"]
    expected = [
        (p, table["items"][str(p)])
        for p in primes_between(5, n)
        if table["items"][str(p)] != NO_ITEM
    ]
    report = json.loads(out)
    errors = _check_items(report["items"], expected)
    if not errors and report["notes"] != [f"{len(expected)} irregular primes <= {n}"]:
        errors.append(f"notes {report['notes']}")
    return errors


def check_dickson(order: int, label: str, out: str) -> list[str]:
    # text output: two header lines, the report as JSON, then the notes
    report = json.loads(out.splitlines()[2])
    if (report["group_order"], report["canonical_label"]) != (order, label):
        return [
            f"order {report['group_order']} label {report['canonical_label']}, "
            f"expected {order} {label}"
        ]
    return []


def check(inv: Invocation, rc: int | None, out: str, reference: dict) -> list[str]:
    """Reasons the invocation failed; empty when exit code and output are right."""
    if rc != 0:
        return [f"exit code {rc}"]
    kind, *rest = inv.check
    try:
        if kind == "scan":
            return check_scan(*rest, out, reference)
        if kind == "irregular":
            return check_irregular(*rest, out, reference)
        if kind == "dickson":
            return check_dickson(*rest, out)
        pool, key = rest
        want = reference["queries"][pool].get(key)
        return [] if want == digest(out) else [f"output digest differs from {want}"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
