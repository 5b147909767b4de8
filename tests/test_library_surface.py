"""Every public function and class of galim serves the library or the CLI,
so a route that only the tests call lives in tests/oracles.py instead."""

import ast
import pkgutil
from collections import Counter
from pathlib import Path

import galim

# Public names no other code in galim refers to, each kept on purpose.
ALLOWED = {
    "arith.totient_liminf_report": "the primorial totient-ratio table of acceptance criterion 9",
    "inertia.serre_ec_bound": "the paper's elliptic-curve comparison bound, in closed form",
    "inertia.semistable_case_verdict": "the paper's verdict on the four semistable local shapes",
    "inertia.case_i_cutoff": "the paper's prime cutoff for the etale shape, in closed form",
    "inertia.eta_gcd_check": "the paper's gcd <= 3 law for the eta exponents, in the README tour",
    "inertia.eta_candidates": "the closed form of the exponents that eta_gcd_check tests, in the README tour",
    "kernels.active_backend": "recorded by the benchmark's child process on every repetition",
    "quadforms.class_number_analytic": "the validated character-sum route to the class number, in the README tour",
}


def _names(node) -> set[str]:
    """Every name read, attribute taken or name imported under node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def test_every_public_definition_has_a_caller_in_galim():
    # every top-level statement of every module, with the names it uses
    statements = []
    for info in pkgutil.iter_modules(galim.__path__):
        source = (Path(galim.__path__[0]) / f"{info.name}.py").read_text(encoding="utf-8")
        statements += [(info.name, node, _names(node)) for node in ast.parse(source).body]
    # how many statements use each name; a use in any statement but the
    # definition itself counts, so a result type that its own module builds
    # needs no caller elsewhere
    uses = Counter(name for _, _, names in statements for name in names)
    unreferenced = {
        f"{module}.{node.name}"
        for module, node, names in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and uses[node.name] == (node.name in names)
    }
    # equality, not inclusion: an entry whose name gained a caller, or was
    # deleted, leaves the list too
    assert unreferenced == set(ALLOWED)
