"""Every memoised table in galim is bounded, so a long scan cannot grow one
without limit."""

import functools
import importlib
import pkgutil

import galim


def test_every_lru_cache_has_a_finite_maxsize():
    caches = {}
    for info in pkgutil.iter_modules(galim.__path__):
        for obj in vars(importlib.import_module(f"galim.{info.name}")).values():
            for fn in [obj, *(vars(obj).values() if isinstance(obj, type) else ())]:
                if isinstance(fn, functools._lru_cache_wrapper):
                    caches[f"{fn.__module__}.{fn.__qualname__}"] = fn
    # the walk would pass vacuously if it found no cache at all
    assert {"galim.cyclotomic.cyclotomic_poly", "galim.quadforms.class_group"} <= set(caches)
    unbounded = [name for name, fn in caches.items() if fn.cache_parameters()["maxsize"] is None]
    assert unbounded == []
