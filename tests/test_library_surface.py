"""Every public function, class and class member of galim serves the library
or the CLI, so a route that only the tests call lives in the tests instead."""

import ast
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

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

# Public methods, properties and classmethods of public classes that no
# other code in galim reads, each kept on purpose.
ALLOWED_MEMBERS = {
    "cyclotomic.CycloValue.to_int": "reads a rational theta coefficient as an int, in the README tour",
    "cyclotomic.CycloValue.conjugate": (
        "complex conjugation in Z[zeta_m], the group-ring step of the theta and character oracles of the tests"
    ),
    "quadforms.ClassCharacter.value_at": "the character's value on a class, the oracle of the theta series in the tests",
    "quadforms.QExpansion.coefficient": "a_n by its index, in the README tour",
}


def _trees() -> dict[str, ast.Module]:
    """Every module of galim, parsed, by its name."""
    root = Path(galim.__path__[0])
    return {
        info.name: ast.parse((root / f"{info.name}.py").read_text(encoding="utf-8"))
        for info in pkgutil.iter_modules(galim.__path__)
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


def _attributes(node) -> Counter:
    """How many times each attribute name is taken under node."""
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def unreferenced_definitions(trees) -> set[str]:
    """Public module-level functions and classes that no other top-level
    statement of galim names."""
    # every top-level statement of every module, with the names it uses
    statements = [
        (module, node, _names(node)) for module, tree in trees.items() for node in tree.body
    ]
    # how many statements use each name; a use in any statement but the
    # definition itself counts, so a result type that its own module builds
    # needs no caller elsewhere
    uses = Counter(name for _, _, names in statements for name in names)
    return {
        f"{module}.{node.name}"
        for module, node, names in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and uses[node.name] == (node.name in names)
    }


def unreferenced_members(trees) -> set[str]:
    """Public methods, properties and classmethods of public classes whose
    name galim never takes as an attribute outside their own body.  Members
    are matched by name alone, so a member that shares its name with an
    attribute read elsewhere counts as used."""
    uses = sum((_attributes(tree) for tree in trees.values()), Counter())
    return {
        f"{module}.{cls.name}.{node.name}"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and uses[node.name] == _attributes(node)[node.name]
    }


def test_every_public_definition_has_a_caller_in_galim():
    # equality, not inclusion: an entry whose name gained a caller, or was
    # deleted, leaves the list too
    assert unreferenced_definitions(_trees()) == set(ALLOWED)


def test_every_public_member_has_a_caller_in_galim():
    assert unreferenced_members(_trees()) == set(ALLOWED_MEMBERS)


def _public_classes():
    return [
        (module, node.name)
        for module, tree in sorted(_trees().items())
        for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
    ]


@pytest.mark.parametrize("module, cls", _public_classes())
def test_guard_names_unused_members_added_to_any_class(module, cls):
    # the mutant: a method, a property, a classmethod and a staticmethod
    # that nothing calls
    trees = _trees()
    (target,) = [n for n in trees[module].body if isinstance(n, ast.ClassDef) and n.name == cls]
    probes = {
        "probe_method": "",
        "probe_property": "@property",
        "probe_classmethod": "@classmethod",
        "probe_static": "@staticmethod",
    }
    for name, decorator in probes.items():
        target.body += ast.parse(f"{decorator}\ndef {name}(self):\n    return 0").body
    added = {f"{module}.{cls}.{name}" for name in probes}
    assert unreferenced_members(trees) == set(ALLOWED_MEMBERS) | added
