"""Self-tests of the benchmark's checker and tracer.

Run from the repository root (kept out of the tier-1 suite, which collects
tests/ only):

    PYTHONPATH=src python3 -m pytest -q bench
"""

import copy
import json
from dataclasses import replace

import pytest

import oracle
from child import run_rep
from tracing import Tracer, self_times, targets
from workloads import WORKLOADS, SCAN_BANDS, make_invocations, primes_between

SMALL = 0.25  # share of each workload's counts in the smoke runs
SEED = 7


@pytest.fixture(scope="module")
def reference():
    return oracle.load_reference()


def small(workload, reference, seed=SEED):
    return make_invocations(workload, seed, reference["query_rank"], scale=SMALL)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_the_checker(workload, reference):
    invocations = small(workload, reference)
    rep = run_rep(invocations, reference)
    assert rep["attempted"] == len(invocations) > 0
    assert rep["failed"] == 0, rep["reasons"]


def test_same_seed_same_inputs(reference):
    for workload in WORKLOADS:
        assert make_invocations(workload, 3, reference["query_rank"]) == make_invocations(
            workload, 3, reference["query_rank"]
        )
        assert make_invocations(workload, 3, reference["query_rank"]) != make_invocations(
            workload, 4, reference["query_rank"]
        )


def test_queries_never_repeat_an_input(reference):
    argvs = [inv.argv for inv in make_invocations("queries", SEED, reference["query_rank"])]
    assert len(argvs) == len(set(argvs))


def test_reference_covers_every_band(reference):
    for kind, hi in SCAN_BANDS.items():
        assert set(reference["scan"][kind]) == {str(p) for p in primes_between(7, hi)}


def test_corrupted_scan_digest_is_caught(reference):
    invocations = small("scan-witness", reference)
    _, kind, lo, _ = next(inv.check for inv in invocations if inv.check[1] == "lr")
    bad = copy.deepcopy(reference)
    bad["scan"][kind][str(lo)] = "0" * 16
    assert run_rep(invocations, bad)["failed"] > 0


def test_corrupted_query_digest_is_caught(reference):
    invocations = small("queries", reference)
    bad = copy.deepcopy(reference)
    for inv in invocations:
        if inv.check[0] == "digest":
            _, pool, key = inv.check
            bad["queries"][pool][key] = "0" * 16
            break
    assert run_rep(invocations, bad)["failed"] == 1


def test_wrong_dickson_label_is_caught(reference):
    invocations = small("queries", reference)
    i = next(i for i, inv in enumerate(invocations) if inv.check[0] == "dickson")
    _, order, label = invocations[i].check
    wrong = "borel" if label == "exceptional-A5" else "exceptional-A5"
    invocations[i] = replace(invocations[i], check=("dickson", order, wrong))
    assert run_rep(invocations, reference)["failed"] == 1


def test_wrong_aggregate_is_caught(reference):
    import galim.cli
    from child import call

    inv = next(i for i in small("scan-witness", reference) if i.check[1] == "lr")
    _, kind, lo, hi = inv.check
    _, out, _, _ = call(galim.cli.main, inv.argv)
    assert oracle.check_scan(kind, lo, hi, out, reference) == []
    report = json.loads(out)
    report["notes"][-1] += "0"
    assert oracle.check_scan(kind, lo, hi, json.dumps(report), reference)


def test_trace_wraps_direct_bindings_and_sums_self_times(reference):
    import galim.cli
    from galim import dickson, quadforms, witness

    originals = targets()
    invocations = small("scan-witness", reference)
    tracer = Tracer()
    rep = run_rep(invocations, reference, tracer)
    assert rep["failed"] == 0
    # restored after the traced repetition
    assert quadforms.factorize is originals["arith.factorize"]
    assert witness.eta_scan is originals["kernels.eta_scan"]
    assert dickson.closure_codes is originals["kernels.closure_codes"]
    assert galim.cli.main is originals["cli.main"]
    layers, _ = self_times(tracer.spans)
    assert layers["arith.factorize"][0] > 0 and layers["kernels.eta_scan"][0] > 0
    total_self = sum(s for _, s in layers.values())
    assert total_self == pytest.approx(sum(rep["latencies"]), rel=0.01)
    assert tracer.scan_considered > tracer.scan_skipped > 0


def test_metrics_match_benchmark_json():
    import run

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    rep = {"wall_s": 1.0, "raw_wall_s": 1.0, "setup_s": 0.2, "peak_rss_mb": 40.0,
           "latencies": [0.05] * 20, "layers": {}}
    end_to_end = run.end_to_end([rep] * 4)
    per_layer, _ = run.per_layer([rep] * 2, [rep] * 2)
    for got, declared in ((end_to_end, spec["end_to_end"]), (per_layer, spec["per_layer"])):
        assert {name: u for name, (_, u) in got.items()} == {m["name"]: m["unit"] for m in declared}


def test_probe_is_timed_with_the_collector_off_and_restores_it():
    import gc

    from calibrate import probe

    assert gc.isenabled()
    assert probe() > 0
    assert gc.isenabled()
