"""Command-line surface: envelopes, formats, exit codes.

Most checks drive cli.main() in process and capture stdout; a single
console-script test confirms the installed entry point end to end.
"""

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import random
import shutil
import subprocess
import sys
import time
import typing
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import galim
from galim import cli
from galim.cyclotomic import CycloValue
from galim.quadforms import QuadForm
from oracles import serialize as serialize_oracle


# one command line per leaf command, each of which takes --format and --out
LEAF_ARGV = [
    ["irregular", "--max", "120"],
    ["classgroup", "-p", "47"],
    ["theta", "-p", "23", "--coeffs", "12"],
    ["dickson", "classify", "--field", "7", "--gen", "0,1,6,0", "--gen", "1,1,0,1"],
    ["inertia", "local", "-p", "7", "-j", "2", "--vcase", "ord"],
    ["bounds", "exceptional", "-d", "3"],
    ["dims", "--x0", "389"],
    ["witness", "hida", "-p", "23"],
    ["scan", "lr", "--from", "7", "--to", "60"],
    ["inertia", "eta", "--max", "200"],
    ["witness", "borel", "-p", "37"],
    ["witness", "lr", "-p", "7"],
]


def command_words(argv):
    """The envelope's command: the words before the first option."""
    words = []
    for word in argv:
        if word.startswith("-"):
            break
        words.append(word)
    return " ".join(words)


def invoke(argv, capsys):
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def invoke_json(argv, capsys):
    rc, out, err = invoke(argv + ["--format", "json"], capsys)
    assert rc == 0, err
    return json.loads(out)


@dataclasses.dataclass(frozen=True)
class Leaf:
    n: int
    q: Fraction
    z: CycloValue


@dataclasses.dataclass
class Node:
    # fields out of alphabetical order: serialize keeps declaration order
    zeta: object
    alpha: object


report_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=4)
    | st.fractions()
    | st.builds(CycloValue.zeta, st.integers(1, 12), st.integers(-30, 30))
    | st.builds(QuadForm, st.integers(1, 9), st.integers(-9, 9), st.integers(1, 9))
    # bool next to int, so sorting mixes them
    | st.frozensets(st.integers(-5, 5) | st.booleans(), max_size=5)
    | st.frozensets(st.fractions(max_denominator=9), max_size=5)
)
report_objects = st.recursive(
    report_scalars,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=3) | st.integers() | st.booleans(), inner, max_size=4)
        | st.builds(Leaf, st.integers(), st.fractions(), st.builds(CycloValue.zeta, st.integers(1, 6)))
        | st.builds(Node, inner, inner)
    ),
    max_leaves=20,
)


class TestSerialize:
    def test_scalars(self):
        assert cli.serialize(True) is True
        assert cli.serialize(5) == 5
        assert type(cli.serialize(5)) is int
        assert cli.serialize(2.5) == 2.5
        assert cli.serialize(None) is None
        assert cli.serialize("x") == "x"

    def test_fraction_as_exact_string(self):
        assert cli.serialize(Fraction(-691, 2730)) == "-691/2730"

    def test_cyclotomic_value(self):
        z = CycloValue.zeta(5)
        assert cli.serialize(z) == {"order": 5, "coeffs": [0, 1, 0, 0, 0]}

    def test_containers_and_dataclasses(self):
        assert cli.serialize(QuadForm(2, -1, 3)) == {"a": 2, "b": -1, "c": 3}
        assert cli.serialize(frozenset({3, 1, 2})) == [1, 2, 3]
        assert cli.serialize((1, (2, 3))) == [1, [2, 3]]
        assert cli.serialize([0, 1, 2]) == [0, 1, 2]
        assert cli.serialize({"k": Fraction(1, 2)}) == {"k": "1/2"}

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            cli.serialize(object())

    def test_quadform_is_the_one_tuple_subclass_accepted(self):
        # QuadForm is a named tuple registered by its fields; a named tuple
        # that is not registered is refused like any other tuple subclass
        Pair = typing.NamedTuple("Pair", [("a", int), ("b", int)])
        assert cli.serialize(QuadForm(2, -1, 3)) == {"a": 2, "b": -1, "c": 3}
        assert cli.serialize([QuadForm(1, 1, 6)]) == [{"a": 1, "b": 1, "c": 6}]
        with pytest.raises(TypeError, match="cannot serialize Pair"):
            cli.serialize(Pair(1, 2))
        with pytest.raises(TypeError, match="cannot serialize Pair"):
            cli.serialize({"pairs": (Pair(1, 2),)})

    @given(report_objects)
    @example([True, 1, False, 0, 1.0, frozenset({True, 2, 0}), {1: True, "1": 1}])
    @example(Node(Leaf(-1, Fraction(3, 6), CycloValue.zeta(4, 5)), (Leaf(0, Fraction(0), CycloValue(1)),)))
    def test_matches_the_isinstance_chain(self, obj):
        # repr tells True from 1 and 1.0, and dict order from its reverse
        assert repr(cli.serialize(obj)) == repr(serialize_oracle(obj))


class TestWorkedExamples:
    def test_witness_borel_37(self, capsys):
        payload = invoke_json(["witness", "borel", "-p", "37"], capsys)
        assert payload["command"] == "witness borel"
        assert payload["version"] == galim.__version__
        (item,) = payload["items"]
        assert item["irregular_indices"] == [32]
        assert item["dim_bound"] == 40

    def test_dims_j1_7(self, capsys):
        payload = invoke_json(["dims", "--j1", "7"], capsys)
        assert payload["items"] == [{"p": 7, "dim": 0}]

    def test_inertia_eta_1000(self, capsys):
        rc, out, _ = invoke(["inertia", "eta", "--max", "1000"], capsys)
        assert rc == 0
        assert "0 counterexamples among 165 primes scanned" in out

    def test_classgroup_23(self, capsys):
        payload = invoke_json(["classgroup", "-p", "23"], capsys)
        (item,) = payload["items"]
        assert item["class_number"] == 3
        assert item["structure"] == [3]
        assert item["reduced_forms"] == [
            {"a": 1, "b": 1, "c": 6},
            {"a": 2, "b": -1, "c": 3},
            {"a": 2, "b": 1, "c": 3},
        ]

    def test_theta_values_are_tagged_cyclotomic(self, capsys):
        payload = invoke_json(["theta", "-p", "23", "--coeffs", "8", "--char", "1"], capsys)
        assert payload["parameters"] == {"p": 23, "coeffs": 8, "char": 1}
        first = payload["items"][0]
        assert first["n"] == 1
        assert first["a"]["order"] == 3
        # a_1 = 1 in the order-3 cyclotomic ring
        assert first["a"]["coeffs"] == [1, 0, 0]

    def test_bounds_exceptional(self, capsys):
        payload = invoke_json(["bounds", "exceptional", "-d", "2"], capsys)
        (item,) = payload["items"]
        assert item["semistable_coarse"] == 3**8
        assert item["exceptional_prime_bound"] == 5 * 3**8
        assert item["ratio"] == 5

    def test_inertia_local(self, capsys):
        payload = invoke_json(["inertia", "local", "-p", "11", "-j", "3", "--vcase", "ss"], capsys)
        (item,) = payload["items"]
        assert item["exceptional_possible"] is True
        assert item["dimension_lower_bound"] == 4


class TestExitCodes:
    def test_regular_prime_is_domain_error(self, capsys):
        rc, out, err = invoke(["witness", "borel", "-p", "11"], capsys)
        assert rc == 2 and out == ""
        assert err.startswith("domain error: regular_prime:")

    def test_trivial_class_group_is_domain_error(self, capsys):
        rc, _, err = invoke(["witness", "hida", "-p", "7"], capsys)
        assert rc == 2
        assert "trivial_class_group:" in err

    @pytest.mark.parametrize("argv", [
        [],
        ["frobenius"],
        ["witness", "borel"],                      # missing -p
        ["irregular", "--max", "3"],               # below domain
        ["theta", "-p", "23", "--char", "99"],     # character index out of range
        ["scan", "einstein", "--from", "2", "--to", "10"],
        ["scan", "borel", "--from", "10", "--to", "2"],
        ["dims", "--x0", "11", "--j1", "7"],       # mutually exclusive
        ["dickson", "classify", "--field", "7", "--gen", "1,2,3"],
        ["classgroup", "-p", "23", "--format", "csv"],
        ["classgroup", "-p", "100000007"],         # above ANALYTIC_MAX_P
        ["scan", "lr", "--from", str((1 << 48) - 100), "--to", str(1 << 48)],
    ])
    def test_usage_errors_exit_1(self, argv, capsys):
        rc, out, err = invoke(argv, capsys)
        assert rc == 1 and out == ""
        assert err.startswith("usage error:")

    def test_theta_coeffs_above_the_limit_exit_1(self, capsys):
        start = time.perf_counter()
        got = invoke(["theta", "-p", "23", "--coeffs", "100001"], capsys)
        assert got == (1, "", "usage error: theta coefficients need bound <= 100000, got 100001\n")
        assert time.perf_counter() - start < 1.0

    def test_unwritable_out_exits_1(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        rc, out, err = invoke(["dims", "--x0", "11", "--out", str(target)], capsys)
        assert rc == 1 and out == ""
        assert err.startswith(f"usage error: cannot write --out {target}:")
        assert "Traceback" not in err and not target.parent.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_1(self, jobs, capsys):
        rc, out, err = invoke(["scan", "eta", "--from", "7", "--to", "50", "--jobs", jobs], capsys)
        assert rc == 1 and out == ""
        assert err == f"usage error: jobs must be >= 1, got {jobs}\n"

    @pytest.mark.parametrize("flag", ["--format", "--out"])
    @pytest.mark.parametrize("argv", [
        ["dickson", "classify", "--field", "7", "--gen", "1,1,0,1"],
        ["inertia", "local", "-p", "11", "-j", "3", "--vcase", "ss"],
        ["bounds", "exceptional", "-d", "2"],
        ["witness", "borel", "-p", "37"],
    ], ids=lambda argv: argv[0])
    def test_shared_options_before_the_leaf_word_exit_1(self, argv, flag, tmp_path, capsys):
        # --format and --out belong to the leaf command: the leaf's default
        # would overwrite a group-level value, so one is refused by name
        target = tmp_path / "report.json"
        value = "json" if flag == "--format" else str(target)
        for given in ([flag, value], [f"{flag}={value}"]):
            rc, out, err = invoke([argv[0], *given] + argv[1:], capsys)
            assert rc == 1 and out == ""
            assert err == f"usage error: {flag} goes after the last command word\n"
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("given", [["--format", "json"], ["--out=report.json"]])
    def test_shared_options_before_the_command_word_exit_1(self, given, tmp_path, capsys,
                                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc, out, err = invoke(given + ["classgroup", "-p", "23"], capsys)
        assert rc == 1 and out == ""
        flag = given[0].split("=")[0]
        assert err == f"usage error: {flag} goes after the last command word\n"
        assert list(tmp_path.iterdir()) == []


class TestBoundsDigitLimit:
    """5 * 3^(4d) first has more than 4300 digits, the interpreter's default
    limit on int-to-str conversion, at d = 2253."""

    @pytest.fixture(autouse=True)
    def digit_limit(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        sys.set_int_max_str_digits(old)

    def test_largest_d_that_prints(self, capsys):
        payload = invoke_json(["bounds", "exceptional", "-d", "2252"], capsys)
        assert payload["items"][0]["exceptional_prime_bound"] == 5 * 3 ** (4 * 2252)

    def test_next_d_is_a_usage_error_naming_it(self, capsys):
        rc, out, err = invoke(["bounds", "exceptional", "-d", "2253"], capsys)
        assert rc == 1 and out == ""
        assert err.startswith("usage error:") and err.rstrip().endswith(" 2252")

    def test_no_refusal_without_a_limit(self, capsys):
        sys.set_int_max_str_digits(0)
        rc, out, _ = invoke(["bounds", "exceptional", "-d", "2253"], capsys)
        assert rc == 0 and str(5 * 3 ** (4 * 2253)) in out


class TestJsonRoundTrip:
    @pytest.mark.parametrize("argv", LEAF_ARGV)
    def test_output_is_canonical_json(self, argv, capsys):
        rc, out, err = invoke(argv + ["--format", "json"], capsys)
        assert rc == 0, err
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
        assert json.loads(out)["command"] == command_words(argv)


def json_oracle(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def write_json(payload) -> str:
    out = []
    cli._write_json(payload, "", out, {})
    return "".join(out)


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text()
    | st.sampled_from([-0.0, 1e16, 0.1, float("nan"), "\u00e9\u6f22\U0001f600", '"\\\n\t\x00\x7f'])
)
json_payloads = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=40,
)


class TestJsonWriter:
    """``cli._write_json`` on JSON-ready payloads against
    ``json.dumps(..., sort_keys=True, indent=2)``."""

    @given(json_payloads)
    @example({"": [], "b": {}, "a": [True, 1, False, 0, None, -0.0, 1e16, 0.1, float("nan")]})
    @example([[1, 2, 3], [True, 2], [1, 2.0], {"\u00e9": ["\u00e9", "\n"]}])
    def test_matches_json_dumps(self, payload):
        assert write_json(payload) == json_oracle(payload)

    @pytest.mark.parametrize(
        "argv",
        [
            ["theta", "-p", "19319", "--coeffs", "120"],
            ["classgroup", "-p", "19319"],
            ["scan", "hida", "--from", "7", "--to", "1500"],
        ]
        + LEAF_ARGV,
    )
    def test_reports_match_json_dumps(self, argv, capsys):
        args = cli._build_parser().parse_args(argv + ["--format", "json"])
        # both oracles: the isinstance chain and json.dumps
        want = json_oracle(serialize_oracle(args.handler(args))) + "\n"
        rc, out, err = invoke(argv + ["--format", "json"], capsys)
        assert rc == 0, err
        assert out == want


def _bench_workloads():
    # the benchmark's input generator: standard library only, no galim
    name = "bench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _scan_argvs(seed: int) -> list[list[str]]:
    """Every ``scan`` command line of the benchmark's scan workloads at seed."""
    workloads = _bench_workloads()
    return [
        list(inv.argv)
        for workload in ("scan-witness", "scan-bernoulli")
        for inv in workloads.make_invocations(workload, seed, {})
        if inv.argv[0] == "scan"
    ]


cyclo_values = st.integers(1, 15).flatmap(
    lambda m: st.builds(CycloValue, st.just(m), st.lists(st.integers(-9, 9), max_size=m))
)
writer_scalars = (
    report_scalars
    | cyclo_values
    | st.sampled_from([-0.0, float("nan"), float("inf"), 1e16, 0.1, "\u00e9\n"])
)
# a CycloValue repeated at several depths: the writer keeps one text per
# value and indent
repeated_values = cyclo_values.map(lambda v: [v, (v, [v]), {"k": v, 7: [v, v]}])
writer_objects = st.recursive(
    writer_scalars | repeated_values,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.sampled_from([(), [], {}])
        | st.dictionaries(st.text(max_size=3) | st.integers(-3, 3) | st.booleans(), inner, max_size=4)
        | st.builds(Leaf, st.integers(), st.fractions(), cyclo_values)
        | st.builds(Node, inner, inner)
        | st.builds(
            cli.ReportEnvelope,
            st.text(max_size=3),
            st.dictionaries(st.text(max_size=3), inner, max_size=3),
            st.lists(inner, max_size=3),
            st.lists(st.text(max_size=3), max_size=2),
        )
    ),
    max_leaves=25,
)


def report_oracle(obj) -> str:
    return json.dumps(serialize_oracle(obj), sort_keys=True, indent=2)


class TestReportWriter:
    """``cli._write_json`` on the report objects themselves, against
    ``json.dumps`` of the isinstance-chain oracle's tree."""

    @given(writer_objects)
    @example({1: "int", "1": "str", (): None, "": [(), [], {}, frozenset()]})
    @example(Node(CycloValue.zeta(4, 5), [CycloValue.zeta(4), Leaf(-1, Fraction(-1, 3), CycloValue(1))]))
    @example([QuadForm(1, 1, 6), {QuadForm(2, -1, 3): frozenset({True, 0, 2})}, -0.0, float("nan")])
    def test_matches_json_dumps_of_the_oracle(self, obj):
        assert write_json(obj) == report_oracle(obj)

    @pytest.mark.parametrize("seed", [7, 23])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_scan_windows_match_json_dumps(self, seed, jobs, capsys):
        argvs = _scan_argvs(seed)
        assert {argv[1] for argv in argvs} == set(cli.witness.SCAN_KINDS)
        for argv in argvs:
            assert argv[-2:] == ["--format", "json"]
            args = cli._build_parser().parse_args(argv)
            want = report_oracle(args.handler(args)) + "\n"
            assert invoke(argv + ["--jobs", jobs], capsys) == (0, want, ""), argv

    @pytest.mark.parametrize(
        "value, name",
        [(np.float64(0.5), "float64"), (np.str_("x"), "str_"), (np.int64(5), "int64"), (object(), "object")],
    )
    def test_refuses_what_serialize_refuses(self, value, name):
        # the last row: keys that collide as strings, and serialize refuses
        # the value of the one that drops out
        for obj in (
            value,
            [1, value],
            {"k": (value,)},
            Node(value, 1),
            Leaf(1, Fraction(1), value),
            {1: value, "1": 2},
        ):
            env = cli.ReportEnvelope("x", {}, [obj], [])
            with pytest.raises(TypeError, match=f"^cannot serialize {name}$"):
                cli._render(env, "json")
            with pytest.raises(TypeError, match=f"^cannot serialize {name}$"):
                cli.serialize(env)

    def test_names_the_value_serialize_meets_first(self):
        # serialize walks fields in declaration order (zeta, then alpha), the
        # writer in key order; the error names the same value either way
        env = cli.ReportEnvelope("x", {}, [Node(object(), np.float64(0.5))], [])
        with pytest.raises(TypeError, match="^cannot serialize object$"):
            cli._render(env, "json")

    def test_scan_hida_json_calls_serialize_never(self, monkeypatch, capsys):
        # the bytes of this command line are checked by
        # TestJsonWriter::test_reports_match_json_dumps
        calls = [0]
        real = cli.serialize

        def counted(obj):
            calls[0] += 1
            return real(obj)

        monkeypatch.setattr(cli, "serialize", counted)
        # the counter works: the text format builds its tree by serialize
        assert invoke(["scan", "hida", "--from", "7", "--to", "60"], capsys)[0] == 0
        assert calls[0] > 0
        calls[0] = 0
        rc, out, err = invoke(["scan", "hida", "--from", "7", "--to", "1500", "--format", "json"], capsys)
        assert (rc, err) == (0, "") and out.startswith('{\n  "command": "scan hida",\n')
        assert calls[0] == 0


class TestScanCli:
    def test_jobs_do_not_change_bytes(self, capsys):
        base = invoke(["scan", "borel", "--from", "2", "--to", "120"], capsys)
        for jobs in ("2", "5"):
            got = invoke(["scan", "borel", "--from", "2", "--to", "120", "--jobs", jobs], capsys)
            assert got == base
        # job count is an execution detail, not a report parameter
        payload = invoke_json(["scan", "borel", "--from", "2", "--to", "120", "--jobs", "3"], capsys)
        assert payload["parameters"] == {"kind": "borel", "from": 2, "to": 120}

    def test_scan_notes_carry_aggregates(self, capsys):
        rc, out, _ = invoke(["scan", "borel", "--from", "2", "--to", "100"], capsys)
        assert rc == 0
        assert "# skipped regular_prime: 19" in out
        assert "# aggregate irregular_primes: [37, 59, 67]" in out

    def test_csv_brauer_siegel(self, capsys):
        rc, out, _ = invoke(
            ["scan", "brauer_siegel", "--from", "7", "--to", "50", "--format", "csv"], capsys
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,h,ratio"
        assert lines[1].startswith("7,1,")

    def test_brauer_siegel_batches_do_not_depend_on_jobs(self, capsys):
        # each chunk is its own batch of discriminants; the bytes are those of
        # the one-prime-at-a-time route
        argv = ["scan", "brauer_siegel", "--from", "7", "--to", "20000", "--format", "json"]
        base = invoke(argv, capsys)
        assert base[0] == 0
        assert hashlib.md5(base[1].encode()).hexdigest() == "1a10f86431e3b73f3c827bbd745d2b9f"
        assert invoke(argv + ["--jobs", "2"], capsys) == base

    def test_brauer_siegel_refuses_the_domain_limit_first(self, capsys):
        # every discriminant of the window is checked before any form is
        # enumerated, so the primes below the limit cost no O(p) pass first
        start = time.perf_counter()
        got = invoke(["scan", "brauer_siegel", "--from", "99999800", "--to", "100000100"], capsys)
        elapsed = time.perf_counter() - start
        assert got == (1, "", "usage error: reduced forms need p <= 100000000, got 100000007\n")
        assert elapsed < 2.0

    def test_csv_hida_drops_exact_theta_column(self, capsys):
        rc, out, _ = invoke(
            ["scan", "hida", "--from", "7", "--to", "60", "--format", "csv"], capsys
        )
        assert rc == 0
        header = out.splitlines()[0]
        assert header == "p,h,h_nontrivial,h_prime_to_p,nebentypus_exponent,dim_lower,dim_upper"
        assert "theta_head" not in out

    def test_csv_eta_with_no_rows_is_empty(self, capsys):
        rc, out, _ = invoke(["inertia", "eta", "--max", "200", "--format", "csv"], capsys)
        assert rc == 0
        assert out == ""


class TestDicksonCli:
    PSL_ARGS = ["dickson", "classify", "--field", "7", "--gen", "0,1,6,0", "--gen", "1,1,0,1"]

    def test_classify_psl2_f7(self, capsys):
        payload = invoke_json(self.PSL_ARGS, capsys)
        (item,) = payload["items"]
        assert item["group_order"] == 168
        assert item["canonical_label"] == "large-PSL(7)"
        assert item["large"] == "PSL(7)"

    def test_entries_reduced_mod_p_for_prime_fields(self, capsys):
        shifted = ["dickson", "classify", "--field", "7", "--gen", "7,8,-1,7", "--gen", "8,1,0,8"]
        got = invoke_json(shifted, capsys)
        want = invoke_json(self.PSL_ARGS, capsys)
        assert got["items"] == want["items"]

    def test_no_size_limit_to_set(self, monkeypatch, capsys):
        rc, out, err = invoke(self.PSL_ARGS + ["--budget", "5"], capsys)
        assert rc == 1 and out == ""
        assert err.startswith("usage error:") and "--budget" in err
        # the old environment override is not read either
        monkeypatch.setenv("GIL_MAX_CLOSURE", "5")
        payload = invoke_json(self.PSL_ARGS, capsys)
        assert payload["parameters"] == {"field": "7", "gen": ["0,1,6,0", "1,1,0,1"]}
        assert payload["items"][0]["group_order"] == 168

    def test_psl2_f169_text_report(self, capsys):
        argv = ["dickson", "classify", "--field", "13,2", "--gen", "1,1,0,1", "--gen", "1,0,13,1"]
        rc, out, err = invoke(argv, capsys)
        assert rc == 0, err
        # two header lines, then the report as JSON
        report = json.loads(out.splitlines()[2])
        assert report["group_order"] == 2_413_320
        assert report["canonical_label"] == "large-PSL(169)"

    def test_extension_field_spec(self, capsys):
        argv = ["dickson", "classify", "--field", "7,2", "--gen", "1,1,0,1", "--gen", "1,0,7,1"]
        payload = invoke_json(argv, capsys)
        assert payload["items"][0]["group_order"] == 58800
        assert payload["items"][0]["canonical_label"] == "large-PSL(49)"

    def test_dihedral_over_a_large_extension_field(self, capsys):
        # 3 has order 1001 in F_2003^*; square roots in F_{2003^2} need no
        # table of its 4,012,009 elements
        argv = ["dickson", "classify", "--field", "2003,2", "--gen", "3,0,0,1", "--gen", "0,1,1,0"]
        payload = invoke_json(argv, capsys)
        (item,) = payload["items"]
        assert (item["q"], item["group_order"]) == (2003 * 2003, 2002)
        assert item["canonical_label"] == "dihedral-split"

    def test_klein_four_over_a_large_prime_field(self, capsys):
        # 3000017^4 overflows int64, so packed element codes could not list
        # this group; its four elements are products of the transversals
        argv = ["dickson", "classify", "--field", "3000017", "--gen", "1,0,0,-1", "--gen", "0,1,1,0"]
        rc, out, err = invoke(argv, capsys)
        assert rc == 0, err
        report = json.loads(out.splitlines()[2])
        assert report["group_order"] == 4
        assert report["canonical_label"] == "dihedral-ambiguous"

    def test_klein_four_with_p_squared_above_2_63(self, capsys):
        # 3037000507 is the least prime with p^2 >= 2^63: Python-int
        # products list the group's elements at any p
        argv = ["dickson", "classify", "--field", "3037000507", "--gen", "1,0,0,-1", "--gen", "0,1,1,0"]
        rc, out, err = invoke(argv, capsys)
        assert rc == 0, err
        report = json.loads(out.splitlines()[2])
        assert report["group_order"] == 4
        assert report["canonical_label"] == "dihedral-ambiguous"

    def test_field_at_2_62_is_a_usage_error(self, capsys):
        # primality is deterministic only below 2^62; 2^62 + 135 is prime
        for p in (1 << 62, (1 << 62) + 135):
            argv = ["dickson", "classify", "--field", str(p), "--gen", "1,0,0,-1"]
            rc, out, err = invoke(argv, capsys)
            assert rc == 1 and out == ""
            assert err.startswith("usage error:") and "2^62" in err


class TestOutputFile:
    def test_out_writes_file_and_silences_stdout(self, tmp_path, capsys):
        for i, argv in enumerate(LEAF_ARGV):
            for fmt in ("text", "json"):
                rc, direct, err = invoke(argv + ["--format", fmt], capsys)
                assert rc == 0, err
                target = tmp_path / f"report{i}.{fmt}"
                rc, out, err = invoke(argv + ["--format", fmt, "--out", str(target)], capsys)
                assert rc == 0 and out == "" and err == ""
                assert target.read_text(encoding="utf-8") == direct

    def test_reports_longer_than_a_slice_keep_their_bytes(self, tmp_path, capsys, monkeypatch):
        # 7 characters a write, so every report here takes many, and some
        # end in a short one
        argvs = [["theta", "-p", "23", "--coeffs", "12"], ["scan", "lr", "--from", "7", "--to", "60"]]
        wants = {}
        for argv in argvs:
            for fmt in ("text", "json"):
                wants[fmt, tuple(argv)] = invoke(argv + ["--format", fmt], capsys)
        assert any(len(out) % 7 for _, out, _ in wants.values())
        monkeypatch.setattr(cli, "_WRITE_SLICE", 7)
        for (fmt, argv), want in wants.items():
            assert len(want[1]) > 100 * 7
            assert invoke(list(argv) + ["--format", fmt], capsys) == want
            target = tmp_path / f"report.{fmt}"
            rc, out, err = invoke(list(argv) + ["--format", fmt, "--out", str(target)], capsys)
            assert (rc, out, err) == (0, "", "")
            assert target.read_text(encoding="utf-8") == want[1]


class TestParserReuse:
    """``main`` builds its parser on the first call and reuses it after."""

    EXTRA_ARGV = [
        ["dickson", "classify", "--field", "7", "--gen", "2,0,0,1", "--gen", "0,1,1,0"],
        ["dickson", "classify", "--field", "7", "--gen", "2,0,0,1", "--gen", "0,1,1,0"],
        ["dims", "--x0", "389"],
        ["dims", "--new", "389"],
        ["classgroup", "-p", "23", "--format", "json"],
        ["classgroup", "-p", "23"],
        ["witness", "borel", "-p", "37", "--out", "report.txt"],
        ["witness", "--format", "json", "borel", "-p", "37"],  # misplaced: exit 1
        ["theta", "--coeffs", "5"],                             # missing -p: exit 1
    ]

    @staticmethod
    def run(argv, capsys, tmp_path):
        rc, out, err = invoke(list(argv), capsys)
        written = tmp_path / "report.txt"
        text = written.read_text(encoding="utf-8") if written.exists() else None
        written.unlink(missing_ok=True)
        return rc, out, err, text

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reuse_leaks_no_state_between_calls(self, seed, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        calls = LEAF_ARGV + self.EXTRA_ARGV
        random.Random(seed).shuffle(calls)
        reused = [self.run(argv, capsys, tmp_path) for argv in calls]
        assert cli._build_parser() is cli._build_parser()
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = [self.run(argv, capsys, tmp_path) for argv in calls]
        for argv, got, want in zip(calls, reused, fresh):
            assert got == want, argv
        # the mix did exercise both exit codes and the output file
        assert {result[0] for result in fresh} == {0, 1}
        assert any(result[3] for result in fresh)

    def test_parser_is_built_at_most_once(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._build_parser.cache_clear()
        invoke(LEAF_ARGV[0], capsys)
        first = len(built)
        # 19 more calls, the last a usage error, build nothing
        for i in range(1, 19):
            invoke(LEAF_ARGV[i % len(LEAF_ARGV)], capsys)
        invoke(["witness", "borel"], capsys)
        assert first > 0
        assert len(built) == first
        assert cli._build_parser.cache_info().currsize == 1

    def test_import_builds_no_parser(self):
        code = "import galim.cli; print(galim.cli._build_parser.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"


class TestConsoleScript:
    def test_installed_entry_point(self):
        exe = shutil.which("galim")
        cmd = [exe] if exe else [sys.executable, "-m", "galim.cli"]
        proc = subprocess.run(
            cmd + ["witness", "borel", "-p", "37", "--format", "json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["items"][0]["irregular_indices"] == [32]
