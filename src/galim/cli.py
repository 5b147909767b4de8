"""Deterministic command-line reports over the library layer.

Every subcommand emits a ReportEnvelope: the command, its input parameters,
the toolkit version, a list of item records and free-form notes.  JSON
output is byte-stable (sorted keys, exact integers, rationals as "num/den",
cyclotomic integers as coefficient lists tagged with their order), and is
written straight from the report objects, each distinct cyclotomic value
formatted once; the text and CSV formats are made from the tree that
``serialize`` builds.  Every format is written a megabyte at a time.  CSV
is offered only for ``scan``, whose items are flat rows.  Exit codes: 0 on
success, 2 on domain errors (regular prime, trivial class group), 1 on usage
errors.  ``--format`` and ``--out`` belong to the leaf command, so they go
after its last word (``galim witness borel -p 37 --format json``); placed
before it they are a usage error.  ``dickson classify`` takes the group order
from Schreier-Sims and lists the elements only of groups of at most 60
elements, so it has no size limit to set; its one field limit is p < 2^62,
where primality testing is deterministic.  The argument parser is built on the
first ``main`` call and reused by every later call in the process.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
from fractions import Fraction

from . import __version__, arith, dickson, dims, inertia, quadforms, witness
from .cyclotomic import CycloValue


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract here is exit code 1
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


class _Misplaced(argparse.Action):
    # a leaf-only option seen before the leaf word: name it and say where it goes
    def __call__(self, parser, namespace, values, option_string=None):
        raise _UsageError(f"{option_string} goes after the last command word")


# exact types that serialize returns as they are
_SCALARS = frozenset((type(None), bool, int, float, str))
# dataclass or QuadForm -> its field names, in declaration order
_FIELDS: dict[type, tuple[str, ...]] = {quadforms.QuadForm: quadforms.QuadForm._fields}


def serialize(obj):
    """Recursively convert report objects into JSON-ready structures.

    Scalars, lists, tuples and dicts pass only as their exact built-in
    types, so a subclass of them, such as numpy's float64 or str_, is
    refused with a TypeError like any other unknown value.  The one tuple
    subclass accepted is ``QuadForm``, which maps to {"a", "b", "c"} as a
    dataclass maps to its fields.
    """
    cls = type(obj)
    if cls in _SCALARS:
        return obj
    if cls is list or cls is tuple:
        return [serialize(v) for v in obj]
    if cls is dict:
        return {str(k): serialize(v) for k, v in obj.items()}
    names = _FIELDS.get(cls)
    if names is not None:
        return {name: serialize(getattr(obj, name)) for name in names}
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, CycloValue):
        return {"order": obj.m, "coeffs": list(obj.coeffs)}
    if dataclasses.is_dataclass(obj):
        names = tuple(f.name for f in dataclasses.fields(obj))
        if not isinstance(obj, type):
            _FIELDS[cls] = names
        return {name: serialize(getattr(obj, name)) for name in names}
    if isinstance(obj, (frozenset, set)):
        return sorted(serialize(v) for v in obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


@dataclasses.dataclass
class ReportEnvelope:
    command: str
    parameters: dict
    items: list
    notes: list
    version: str = __version__


# ---------------------------------------------------------------------------
# Subcommand handlers, each returning a ReportEnvelope
# ---------------------------------------------------------------------------


def _cmd_irregular(args) -> ReportEnvelope:
    if args.max < 5:
        raise ValueError(f"--max must be >= 5, got {args.max}")
    items = []
    for p in arith.primes_in_range(5, args.max):
        idx = arith.irregular_indices(p)
        if idx:
            items.append({"p": p, "indices": sorted(idx)})
    return ReportEnvelope(
        "irregular",
        {"max": args.max},
        items,
        [f"{len(items)} irregular primes <= {args.max}"],
    )


def _cmd_classgroup(args) -> ReportEnvelope:
    grp = quadforms.class_group(-args.p)
    item = {
        "discriminant": -args.p,
        "class_number": grp.order,
        "structure": list(grp.structure),
        "generators": list(grp.generators),
        "reduced_forms": list(quadforms.reduced_forms(-args.p)),
    }
    return ReportEnvelope(
        "classgroup",
        {"p": args.p},
        [item],
        [f"invariant factors {list(grp.structure)}"],
    )


def _cmd_theta(args) -> ReportEnvelope:
    chars = quadforms.characters(-args.p)
    if not 0 <= args.char < len(chars):
        raise ValueError(f"--char must be in [0, {len(chars) - 1}], got {args.char}")
    char = chars[args.char]
    theta = quadforms.theta_coefficients(-args.p, char, args.coeffs)
    items = [{"n": n, "a": theta.coefficients[n]} for n in range(1, args.coeffs + 1)]
    return ReportEnvelope(
        "theta",
        {"p": args.p, "coeffs": args.coeffs, "char": args.char},
        items,
        [
            f"character exponents {list(char.exponents)} of order {char.order}",
            f"values live in the cyclotomic ring of order {theta.char_order}",
        ],
    )


def _parse_field(spec: str) -> dickson.GFq:
    parts = spec.split(",")
    if len(parts) not in (1, 2):
        raise ValueError(f"--field expects p or p,r; got {spec!r}")
    try:
        p = int(parts[0])
        r = int(parts[1]) if len(parts) == 2 else 1
    except ValueError:
        raise ValueError(f"--field expects integers, got {spec!r}") from None
    return dickson.GFq(p, r)


def _parse_gen(field: dickson.GFq, spec: str) -> dickson.Mat2:
    try:
        entries = [int(x) for x in spec.split(",")]
    except ValueError:
        raise ValueError(f"--gen expects four integers, got {spec!r}") from None
    if len(entries) != 4:
        raise ValueError(f"--gen expects four entries, got {len(entries)}")
    return dickson.Mat2(field, *(e % field.q if field.r == 1 else e for e in entries))


def _cmd_dickson(args) -> ReportEnvelope:
    field = _parse_field(args.field)
    gens = [_parse_gen(field, g) for g in args.gen]
    report = dickson.classify(gens)
    return ReportEnvelope(
        "dickson classify",
        {"field": args.field, "gen": list(args.gen)},
        [report],
        [f"projective closure has {report.group_order} elements"],
    )


def _cmd_inertia_local(args) -> ReportEnvelope:
    verdict = inertia.classify_weight2_local(args.p, args.j, args.vcase)
    return ReportEnvelope(
        "inertia local",
        {"p": args.p, "j": args.j, "vcase": args.vcase},
        [verdict],
        [],
    )


def _cmd_inertia_eta(args) -> ReportEnvelope:
    if args.max < 7:
        raise ValueError(f"--max must be >= 7, got {args.max}")
    rep = witness.scan("eta", 7, args.max, jobs=args.jobs)
    return ReportEnvelope(
        "inertia eta",
        {"max": args.max},
        list(rep.items),
        [
            f"{rep.aggregates['counterexamples']} counterexamples "
            f"among {rep.aggregates['scanned']} primes scanned"
        ],
    )


def _cmd_bounds(args) -> ReportEnvelope:
    # 5 * 3^(4d), the largest bound, must print within the interpreter's
    # limit on int-to-str digits (0: no limit); checked before computing it
    digits = sys.get_int_max_str_digits()
    if digits:
        top = 10**digits
        d_max = int(digits / math.log10(81))
        while 5 * 81**d_max >= top:
            d_max -= 1
        if args.d > d_max:
            raise ValueError(
                f"-d {args.d} gives bounds of more than {digits} digits; "
                f"the largest d that prints is {d_max}"
            )
    b = inertia.semistable_index_bound(args.d)
    prime_bound = inertia.exceptional_prime_bound(args.d)
    item = {
        "d": args.d,
        "semistable_coarse": b.coarse,
        "semistable_refined": b.refined,
        "exceptional_prime_bound": prime_bound,
        "ratio": prime_bound // b.coarse,
    }
    return ReportEnvelope("bounds exceptional", {"d": args.d}, [item], [])


def _cmd_dims(args) -> ReportEnvelope:
    if args.x0 is not None:
        item, params = dims.genus_X0(args.x0), {"x0": args.x0}
    elif args.x1 is not None:
        item = {"level": args.x1, "genus": dims.genus_X1(args.x1)}
        params = {"x1": args.x1}
    elif args.new is not None:
        item = {"level": args.new, "dim_new": dims.dim_S2_new_Gamma0(args.new)}
        params = {"new": args.new}
    else:
        item = {"p": args.j1, "dim": dims.dim_J1_prime(args.j1)}
        params = {"j1": args.j1}
    return ReportEnvelope("dims", params, [item], [])


def _cmd_witness(args) -> ReportEnvelope:
    builders = {
        "borel": witness.borel_witness,
        "lr": witness.dihedral_lr_witness,
        "hida": witness.dihedral_hida_witness,
    }
    item = builders[args.witness_kind](args.p)
    return ReportEnvelope(f"witness {args.witness_kind}", {"p": args.p}, [item], [])


def _cmd_scan(args) -> ReportEnvelope:
    rep = witness.scan(args.kind, args.lo, args.hi, jobs=args.jobs)
    notes = [f"skipped {reason}: {count}" for reason, count in sorted(rep.skipped.items())]
    # the aggregates are ints, floats and lists of ints, which json takes as they are
    notes += [
        f"aggregate {key}: {json.dumps(value, sort_keys=True)}"
        for key, value in sorted(rep.aggregates.items())
    ]
    return ReportEnvelope(
        f"scan {args.kind}",
        {"kind": args.kind, "from": args.lo, "to": args.hi},
        list(rep.items),
        notes,
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_CSV_DROP = {"theta_head"}  # exact cyclotomic lists do not flatten to a cell


def _flatten(record: dict) -> dict:
    out = {}
    for key, value in record.items():
        if key in _CSV_DROP:
            continue
        if isinstance(value, list):
            out[key] = ";".join(str(v) for v in value)
        else:
            out[key] = value
    return out


_encode_str = json.encoder.encode_basestring_ascii
# dataclass or QuadForm -> (encoded '"name": ' prefix, name) for each field,
# in key order; built from _FIELDS on the first instance written
_PLANS: dict[type, tuple[tuple[str, str], ...]] = {}


def _plan(cls: type) -> tuple[tuple[str, str], ...] | None:
    """The field plan of a class that serialize maps by its fields, or None."""
    names = _FIELDS.get(cls)
    if names is None:
        if issubclass(cls, (Fraction, CycloValue)) or not dataclasses.is_dataclass(cls):
            return None
        names = _FIELDS[cls] = tuple(f.name for f in dataclasses.fields(cls))
    plan = _PLANS[cls] = tuple((_encode_str(name) + ": ", name) for name in sorted(names))
    return plan


def _write_json(obj, indent: str, out: list[str], cyclo: dict) -> None:
    """Append the bytes of ``json.dumps(serialize(obj), sort_keys=True,
    indent=2)`` to ``out``, for obj at nesting ``indent``, walking the report
    objects themselves.  Dataclasses and ``QuadForm`` are written field by
    field from their plans, each list of plain ints is joined in one call,
    and the text of each ``CycloValue`` is kept in ``cyclo``, keyed by
    (order, coefficients, indent), so that a value repeated across a report
    is formatted once.  None, bools and floats go to ``json.dumps``; every
    other value goes through ``serialize``, which refuses what it does not
    know with the same TypeError."""
    cls = type(obj)
    if cls is int:
        out.append(str(obj))
    elif cls is str:
        out.append(_encode_str(obj))
    elif cls is list or cls is tuple:
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        if all(type(v) is int for v in obj):
            out.append("[\n" + inner + (",\n" + inner).join(map(str, obj)) + "\n" + indent + "]")
            return
        sep = "[\n" + inner
        for v in obj:
            out.append(sep)
            _write_json(v, inner, out, cyclo)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    elif cls is CycloValue:
        key = (obj.m, obj.coeffs, indent)
        text = cyclo.get(key)
        if text is None:
            # the constructor stores exact ints, at least one of them
            inner = indent + "  "
            row = ",\n" + inner + "  "
            text = cyclo[key] = (
                f'{{\n{inner}"coeffs": [{row[1:]}{row.join(map(str, obj.coeffs))}\n'
                f'{inner}],\n{inner}"order": {obj.m}\n{indent}}}'
            )
        out.append(text)
    elif cls is dict:
        keyed = {str(k): v for k, v in obj.items()}
        if len(keyed) < len(obj):
            # keys that collide as strings: serialize decides which value
            # stays and refuses a value it drops
            _write_json(serialize(obj), indent, out, cyclo)
        else:
            members = [(_encode_str(key) + ": ", keyed[key]) for key in sorted(keyed)]
            _write_members(members, indent, out, cyclo)
    elif cls in _SCALARS:
        out.append(json.dumps(obj))
    else:
        plan = _PLANS.get(cls) or _plan(cls)
        if plan is None:
            _write_json(serialize(obj), indent, out, cyclo)
        else:
            members = [(prefix, getattr(obj, name)) for prefix, name in plan]
            _write_members(members, indent, out, cyclo)


def _write_members(members: list, indent: str, out: list[str], cyclo: dict) -> None:
    """Write a JSON object from its (encoded '"key": ' prefix, value) pairs."""
    if not members:
        out.append("{}")
        return
    inner = indent + "  "
    sep = "{\n" + inner
    for prefix, value in members:
        out.append(sep + prefix)
        _write_json(value, inner, out, cyclo)
        sep = ",\n" + inner
    out.append("\n" + indent + "}")


# Characters of a report per write: a stream encodes each write whole, so one
# write of a large report would hold it a second time as bytes, while a
# report shorter than this, as most are, still goes out in one write
_WRITE_SLICE = 1 << 20


def _write_text(stream, text: str) -> None:
    for i in range(0, len(text), _WRITE_SLICE):
        stream.write(text[i : i + _WRITE_SLICE])


def _render(env: ReportEnvelope, fmt: str) -> str:
    """The report in one of the three formats.  JSON is written straight
    from the report objects; text and csv are made from ``serialize(env)``."""
    if fmt == "json":
        out: list[str] = []
        try:
            _write_json(env, "", out, {})
        except TypeError:
            # name the value that serialize meets first, not the writer's
            # first in key order
            serialize(env)
            raise
        out.append("\n")
        return "".join(out)
    payload = serialize(env)
    if fmt == "csv":
        if not env.command.startswith(("scan", "inertia eta")):
            raise ValueError("csv format is only available for scan outputs")
        rows = [_flatten(item) for item in payload["items"]]
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        return buf.getvalue()
    lines = [f"# galim {env.command} v{env.version}"]
    lines.append(f"# parameters: {json.dumps(payload['parameters'], sort_keys=True)}")
    for item in payload["items"]:
        lines.append(json.dumps(item, sort_keys=True))
    for note in env.notes:
        lines.append(f"# {note}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Parser assembly and entry point
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    # Built once per process, on the first main call, and reused by every
    # later call: parse_args returns a fresh namespace each time, and the
    # _cmd_* handlers are bound here, at that first call.  A test that needs
    # a freshly built parser calls _build_parser.__wrapped__().
    #
    # --format and --out go on leaf commands only: argparse would overwrite a
    # group parser's copy with the leaf's default, so the top and group
    # parsers carry a copy that only refuses them by name
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"), default="text")
    common.add_argument("--out", metavar="FILE", default=None)
    misplaced = _Parser(add_help=False)
    for flag in ("--format", "--out"):
        misplaced.add_argument(flag, action=_Misplaced, help=argparse.SUPPRESS)

    def leaf(subparsers, name: str, handler) -> _Parser:
        p = subparsers.add_parser(name, parents=[common])
        p.set_defaults(handler=handler)
        return p

    def group(name: str, dest: str):
        parser = sub.add_parser(name, parents=[misplaced])
        return parser.add_subparsers(dest=dest, required=True, parser_class=_Parser)

    top = _Parser(prog="galim", description=__doc__, parents=[misplaced])
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = leaf(sub, "irregular", _cmd_irregular)
    p.add_argument("--max", type=int, required=True)

    p = leaf(sub, "classgroup", _cmd_classgroup)
    p.add_argument("-p", type=int, required=True, dest="p")

    p = leaf(sub, "theta", _cmd_theta)
    p.add_argument("-p", type=int, required=True, dest="p")
    p.add_argument("--coeffs", type=int, default=100)
    p.add_argument("--char", type=int, default=1)

    p = leaf(group("dickson", "dickson_cmd"), "classify", _cmd_dickson)
    p.add_argument("--field", required=True, help="p or p,r")
    p.add_argument("--gen", action="append", required=True, help='"a,b,c,d", repeatable')

    in_sub = group("inertia", "inertia_cmd")
    p = leaf(in_sub, "local", _cmd_inertia_local)
    p.add_argument("-p", type=int, required=True, dest="p")
    p.add_argument("-j", type=int, required=True, dest="j")
    p.add_argument("--vcase", choices=("ord", "st", "ss"), required=True)
    p = leaf(in_sub, "eta", _cmd_inertia_eta)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)

    p = leaf(group("bounds", "bounds_cmd"), "exceptional", _cmd_bounds)
    p.add_argument("-d", type=int, required=True, dest="d")

    p = leaf(sub, "dims", _cmd_dims)
    choice = p.add_mutually_exclusive_group(required=True)
    for level in ("--x0", "--x1", "--new", "--j1"):
        choice.add_argument(level, type=int)

    w_sub = group("witness", "witness_kind")
    for kind in ("borel", "lr", "hida"):
        leaf(w_sub, kind, _cmd_witness).add_argument("-p", type=int, required=True, dest="p")

    p = leaf(sub, "scan", _cmd_scan)
    p.add_argument("kind", choices=witness.SCAN_KINDS)
    p.add_argument("--from", type=int, required=True, dest="lo")
    p.add_argument("--to", type=int, required=True, dest="hi")
    p.add_argument("--jobs", type=int, default=1)

    return top


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        envelope = args.handler(args)
        rendered = _render(envelope, args.format)
    except (witness.RegularPrimeError, witness.TrivialClassGroupError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                _write_text(fh, rendered)
        except OSError as exc:
            reason = exc.strerror or exc
            print(f"usage error: cannot write --out {args.out}: {reason}", file=sys.stderr)
            return 1
    else:
        _write_text(sys.stdout, rendered)
    return 0


if __name__ == "__main__":
    sys.exit(main())
