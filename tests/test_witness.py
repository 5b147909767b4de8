"""Witness constructions per prime and the multi-process range scans."""

import concurrent.futures
import functools
import math
import pickle
import subprocess
import sys
from types import SimpleNamespace

import pytest

from galim import dims, quadforms, witness
from galim.arith import primes_in_range, totient
from galim.cyclotomic import CycloValue
from galim.witness import RegularPrimeError, TrivialClassGroupError


class TestBorelWitness:
    def test_prime_37(self):
        w = witness.borel_witness(37)
        assert w.irregular_indices == (32,)
        assert w.nebentypus_exponents == (30,)
        assert w.dim_bound == 40  # (37-5)(37-7)/24

    def test_prime_157_two_indices(self):
        w = witness.borel_witness(157)
        assert w.irregular_indices == (62, 110)
        assert w.nebentypus_exponents == (60, 108)
        assert w.dim_bound == (157 - 5) * (157 - 7) // 24

    def test_regular_primes_raise(self):
        for p in (7, 11, 31, 97):
            with pytest.raises(RegularPrimeError) as err:
                witness.borel_witness(p)
            assert str(err.value).startswith("regular_prime:")

    def test_domain(self):
        with pytest.raises(ValueError):
            witness.borel_witness(6)
        with pytest.raises(ValueError):
            witness.borel_witness(5)


class TestLRWitness:
    def test_known_least_primes(self):
        w = witness.dihedral_lr_witness(7)
        assert (w.ell, w.cartan_type) == (83, "nonsplit")
        assert w.level == 64 * 83
        assert w.dim_bound == 164
        w = witness.dihedral_lr_witness(11)
        assert (w.ell, w.cartan_type) == (43, "nonsplit")
        w = witness.dihedral_lr_witness(13)
        assert (w.ell, w.cartan_type) == (103, "split")
        assert w.level == 64 * 103 and w.dim_bound == 204

    def test_progression_and_ratio(self):
        for p in (7, 19, 23, 101):
            w = witness.dihedral_lr_witness(p)
            assert w.ell % p == p - 1  # ell = -1 mod p
            assert w.ell % 4 == 3
            assert w.cartan_type == ("nonsplit" if p % 4 == 3 else "split")
            assert w.linnik_ratio == pytest.approx(w.ell / p**5.5)
            assert w.linnik_ratio < 1

    def test_dim_bound_matches_new_dimension(self):
        from galim.dims import dim_S2_new_Gamma0

        w = witness.dihedral_lr_witness(29)
        assert w.dim_bound == dim_S2_new_Gamma0(64 * w.ell)


class TestHidaWitness:
    def test_prime_23(self):
        w = witness.dihedral_hida_witness(23)
        assert w.h == 3
        assert w.h_nontrivial and w.h_prime_to_p
        assert w.nebentypus_exponent == 10
        assert (w.dim_lower, w.dim_upper) == (10, 12)
        assert w.dim_lower == totient(11)
        # theta head starts a_1 = 1, a_2 = -1 for the eta-product series
        assert w.theta_head[0].to_int() == 1
        assert w.theta_head[1].to_int() == -1
        assert len(w.theta_head) == 100

    def test_prime_31(self):
        w = witness.dihedral_hida_witness(31, head=20)
        assert w.h == 3
        assert w.nebentypus_exponent == 14
        assert len(w.theta_head) == 20

    def test_head_values_are_cyclotomic(self):
        w = witness.dihedral_hida_witness(47, head=12)
        assert all(isinstance(a, CycloValue) for a in w.theta_head)
        assert w.h == 5 and w.theta_head[0].m == 5

    def test_trivial_class_group_raises(self):
        for p in (7, 11, 19, 43, 67, 163):
            with pytest.raises(TrivialClassGroupError) as err:
                witness.dihedral_hida_witness(p)
            assert str(err.value).startswith("trivial_class_group:")

    def test_wrong_residue_class_rejected(self):
        with pytest.raises(ValueError):
            witness.dihedral_hida_witness(13)

    def test_witness_pickles(self):
        w = witness.dihedral_hida_witness(23, head=8)
        assert pickle.loads(pickle.dumps(w)) == w


class TestScan:
    def test_borel_scan_matches_pointwise(self):
        rep = witness.scan("borel", 2, 100)
        assert [w.p for w in rep.items] == [37, 59, 67]
        assert rep.skipped == {"below_domain": 3, "regular_prime": 19}
        assert rep.aggregates["count"] == 3
        assert rep.aggregates["irregular_primes"] == [37, 59, 67]

    def test_lr_scan_aggregates(self):
        rep = witness.scan("lr", 7, 100)
        assert rep.aggregates["count"] == len(rep.items) == 22
        worst = max(rep.items, key=lambda w: w.linnik_ratio)
        assert rep.aggregates["max_linnik_ratio"] == worst.linnik_ratio
        assert rep.aggregates["max_linnik_ratio_at"] == worst.p

    def test_hida_scan_skips(self):
        rep = witness.scan("hida", 7, 60)
        assert [w.p for w in rep.items] == [23, 31, 47, 59]
        assert rep.skipped["trivial_class_group"] == 4  # 7, 11, 19, 43
        assert rep.skipped["not_3_mod_4"] == 6
        assert rep.aggregates["max_class_number"] == 5

    def test_eta_scan(self):
        rep = witness.scan("eta", 2, 2000)
        assert rep.items == ()
        assert rep.aggregates["counterexamples"] == 0
        assert rep.aggregates["scanned"] == 300
        assert rep.skipped["below_domain"] == 3

    def test_brauer_siegel_scan(self):
        rep = witness.scan("brauer_siegel", 7, 100)
        by_p = {r["p"]: r["h"] for r in rep.items}
        assert by_p[23] == 3 and by_p[47] == 5 and by_p[71] == 7
        for r in rep.items:
            expected = 0.0 if r["h"] == 1 else 2 * math.log(r["h"]) / math.log(r["p"])
            assert r["ratio"] == pytest.approx(expected)
        assert rep.aggregates["ratio_min"] == 0.0
        assert rep.aggregates["ratio_max"] == pytest.approx(
            2 * math.log(7) / math.log(71)
        )

    def test_caches_stay_bounded_over_a_long_scan(self, monkeypatch):
        bound = quadforms.CACHE_MAXSIZE
        for cached in (quadforms.reduced_forms, quadforms.class_group):
            assert cached.cache_info().maxsize == bound
        hi = 20000
        admissible = [p for p in primes_in_range(7, hi) if p % 4 == 3]
        assert len(admissible) > bound
        # the brauer_siegel scan counts its class numbers in one batch per
        # chunk, outside the reduced-forms cache
        quadforms.reduced_forms.cache_clear()
        rep = witness.scan("brauer_siegel", 7, hi)
        assert quadforms.reduced_forms.cache_info().currsize == 0
        # one prime at a time, class_number fills the cache up to its bound
        hs = [quadforms.class_number(-p) for p in admissible]
        assert hs == [r["h"] for r in rep.items]
        assert quadforms.reduced_forms.cache_info().currsize == bound
        unbounded = functools.lru_cache(maxsize=None)(quadforms.reduced_forms.__wrapped__)
        monkeypatch.setattr(quadforms, "reduced_forms", unbounded)
        assert [quadforms.class_number(-p) for p in admissible] == hs
        assert unbounded.cache_info().currsize > bound

    def test_dims_caches_stay_bounded_over_a_long_lr_scan(self):
        bound = quadforms.CACHE_MAXSIZE
        assert dims.genus_X0.cache_info().maxsize == bound
        # a scan never asks for one level twice, so these keep no cache
        for uncached in (dims.dim_S2_new_Gamma0, dims.genus_X1):
            assert not hasattr(uncached, "cache_info")
        # each prime brings one new level 64*ell and three new genus_X0 levels
        rep = witness.scan("lr", 7, 9000)
        assert len(rep.items) > bound
        assert dims.genus_X0.cache_info().currsize == bound

    def test_invalid_kind_and_range(self):
        with pytest.raises(ValueError):
            witness.scan("einstein", 2, 10)
        with pytest.raises(ValueError):
            witness.scan("borel", 10, 2)

    @pytest.mark.parametrize("kind,lo,hi", [
        ("borel", 2, 300),
        ("eta", 7, 4000),
        ("hida", 7, 150),
        ("lr", 7, 120),
        ("brauer_siegel", 7, 200),
    ])
    def test_jobs_do_not_change_reports(self, kind, lo, hi):
        base = witness.scan(kind, lo, hi, jobs=1)
        for jobs in (2, 3, 7):
            assert witness.scan(kind, lo, hi, jobs=jobs) == base

    def test_more_jobs_than_primes(self):
        base = witness.scan("borel", 2, 12)
        assert witness.scan("borel", 2, 12, jobs=32) == base

    @pytest.fixture
    def serial_pool(self, monkeypatch):
        """An in-process stand-in for the process pool; records the worker
        count of each pool in ``workers``, and the (lo, hi) spans and the
        chunksize of each ``map`` in ``spans`` and ``chunksizes``."""
        seen = SimpleNamespace(workers=[], spans=[], chunksizes=[])

        class SerialPool:
            def __init__(self, max_workers):
                seen.workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, kinds, los, his, chunksize=1):
                seen.spans.append(list(zip(los, his)))
                seen.chunksizes.append(chunksize)
                return map(fn, kinds, los, his)

        # scan imports the pool from concurrent.futures only when jobs > 1
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        return seen

    @pytest.mark.parametrize("cpus,workers", [(2, 2), (None, 1)])
    def test_workers_capped_at_cpu_count(self, monkeypatch, serial_pool, cpus, workers):
        monkeypatch.setattr(witness.os, "cpu_count", lambda: cpus)
        base = witness.scan("eta", 7, 4000)
        assert witness.scan("eta", 7, 4000, jobs=100_000) == base
        assert serial_pool.workers == [workers]

    def test_chunk_count_is_capped_by_the_range(self, serial_pool):
        # ten million jobs over the 94 integers of [7, 100] make 94 chunks,
        # so the chunk bounds cost the range, not the job count; the chunks
        # come in order and tile the range with no gap, overlap or empty span
        base = witness.scan("lr", 7, 100)
        for jobs in (2, 7, 94, 10**7):
            assert witness.scan("lr", 7, 100, jobs=jobs) == base
            spans = serial_pool.spans.pop()
            assert len(spans) == min(jobs, 94)
            assert spans[0][0] == 7 and spans[-1][1] == 100
            assert all(lo <= hi for lo, hi in spans)
            assert all(prev[1] + 1 == nxt[0] for prev, nxt in zip(spans, spans[1:]))
        assert witness.scan("lr", 7, 7, jobs=10**7) == witness.scan("lr", 7, 7)
        # one pool per multi-chunk scan; the one-integer range runs serially
        assert serial_pool.spans == []
        assert len(serial_pool.workers) == 4

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_chunks_go_in_at_most_one_batch_per_worker(self, monkeypatch, serial_pool, cpus):
        # ten million jobs over a 94-integer range make 94 one-integer chunks,
        # which must reach the pool in at most one round trip per worker
        monkeypatch.setattr(witness.os, "cpu_count", lambda: cpus)
        for jobs in (2, 3, 7, 94, 10**7):
            witness.scan("lr", 7, 100, jobs=jobs)
            workers = serial_pool.workers.pop()
            chunks = len(serial_pool.spans.pop())
            chunksize = serial_pool.chunksizes.pop()
            assert workers == min(jobs, cpus)
            assert -(-chunks // chunksize) <= workers
            # the batches are as even as the chunk count allows
            assert chunksize == -(-chunks // workers)

    def test_cli_import_leaves_the_process_pool_unloaded(self):
        code = "import sys, galim.cli; print('concurrent.futures' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"
