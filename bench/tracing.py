"""Per-layer spans for the traced run, recorded from outside the program.

Every public function of galim's library modules, plus ``cli.main``, is
wrapped.  The wrapping rule: every attribute of every loaded galim module
that *is* one of those function objects is replaced by its wrapper, because
callers bind names directly (``quadforms.factorize``, ``witness.eta_scan``,
``dickson.closure_codes`` ...).  lru_cache functions are wrapped outside the
cache, so hits count as calls.  ``cyclotomic``, the rest of ``cli`` and the
form arithmetic in PER_ELEMENT stay unwrapped: they run per coefficient or
per group element, where a wrapper costs about as much as the work, so
their time is the self time of their callers.
Spans stay in memory until ``write_spans``.  Spans made in scan worker
processes are not collected.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

WRAPPED_MODULES = ("arith", "kernels", "quadforms", "dims", "dickson", "inertia", "witness")
ROOT = "cli.main"
PER_ELEMENT = frozenset(
    f"quadforms.{name}"
    for name in ("reduce_form", "compose", "form_square", "form_inverse", "form_pow", "principal_form")
)


def targets() -> dict[str, object]:
    """Layer name -> original function, for every function the rule wraps."""
    import galim.cli

    out = {ROOT: galim.cli.main}
    for short in WRAPPED_MODULES:
        mod = sys.modules[f"galim.{short}"]
        for name, obj in vars(mod).items():
            is_func = isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper))
            layer = f"{short}.{name}"
            public = not name.startswith("_") and layer not in PER_ELEMENT
            if is_func and public and obj.__module__ == mod.__name__:
                out[layer] = obj
    return out


class Tracer:
    """Records one (id, parent, invocation, layer, start, end) span per wrapped call.

    Set ``invocation`` before each CLI call so that the spans of one call
    share it.  Also counts closure elements returned by ``dickson.closure``
    and primes considered and skipped in ``witness.scan`` reports.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.invocation = 0
        self.closure_elements = 0
        self.scan_considered = 0
        self.scan_skipped = 0
        self.originals: dict[str, object] = {}
        self._stack = [-1]
        self._ids = itertools.count()
        self._replaced: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        on_result = {"dickson.closure": self._count_closure, "witness.scan": self._count_scan}.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.invocation, layer, start, end))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_closure(self, elements) -> None:
        self.closure_elements += 0 if elements is None else len(elements)

    def _count_scan(self, report) -> None:
        skipped = sum(report.skipped.values())
        scanned = report.aggregates["scanned"] if report.kind == "eta" else len(report.items)
        self.scan_skipped += skipped
        self.scan_considered += skipped + scanned

    def install(self) -> None:
        self.originals = targets()
        wrappers = {id(fn): (fn, self._wrap(layer, fn)) for layer, fn in self.originals.items()}
        for name, mod in list(sys.modules.items()):
            if name != "galim" and not name.startswith("galim."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._replaced.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._replaced):
            setattr(mod, attr, value)
        self._replaced.clear()

    def cache_info(self, layer: str):
        return self.originals[layer].cache_info()

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def self_times(spans) -> tuple[dict[str, list], dict[int, dict[str, float]]]:
    """Per layer [calls, self seconds], and per invocation layer -> self seconds.

    A span's self time is its duration minus the durations of its direct
    children, so the self times of all layers sum to the root spans.
    """
    child = defaultdict(float)
    for sid, parent, _, _, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    layers: dict[str, list] = defaultdict(lambda: [0, 0.0])
    per_call: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for sid, _, inv, layer, start, end in spans:
        own = end - start - child[sid]
        layers[layer][0] += 1
        layers[layer][1] += own
        per_call[inv][layer] += own
    return layers, per_call
