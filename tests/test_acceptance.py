"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime (run with `pytest tests/test_acceptance.py -v -s`).
Every expected value is pinned here; timing limits are asserted."""

import itertools
import time

import pytest

from taurank.algebra import Ideal, build_algebra
from taurank.artheory import (
    ar_formula_check,
    ext1_dim,
    hierarchy_report,
    is_tau_regular,
    reduce_and_compare,
    tau,
)
from taurank.examples_suite import cok_f_100
from taurank.fields import SeedStream
from taurank.fixtures import FIXTURE_NAMES, FIXTURE_SOURCES, load_fixture
from taurank.polyrank import poly_rank
from taurank.presentations import (
    ProjDecomp,
    additivity_scan,
    generic_rank,
    random_module,
    random_presentation,
    realize_pair,
)
from taurank.quiver import parse_quiver_file
from taurank.reps import (
    annihilator,
    direct_sum,
    hom_dim,
    injective,
    proj_dim,
    projective,
    simple,
    syzygy,
)

from helpers import reduce_presentation


class Timer:
    def __init__(self, name, limit):
        self.name = name
        self.limit = limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] {self.name}: {elapsed:.3f}s (limit {self.limit}s)")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"{self.name} exceeded its time limit: {elapsed:.3f}s >= {self.limit}s"
            )
        return False


def test_criterion_01_alg_a_structure():
    with Timer("criterion 1: ALG-A structure", 0.1):
        quiver, relations = parse_quiver_file(FIXTURE_SOURCES["ALG-A"])
        alg = build_algebra(quiver, relations)
        assert alg.dim == 12
        assert alg.dims_of_projective(1) == (1, 0, 0)
        assert alg.dims_of_projective(2) == (3, 1, 0)
        assert alg.dims_of_projective(3) == (3, 3, 1)


def test_criterion_02_max_rank_single_pair():
    alg = load_fixture("ALG-A")
    with Timer("criterion 2: r(P(2), P(3)) = 3 certified", 1.0):
        res = generic_rank(
            alg, ProjDecomp((0, 1, 0)), ProjDecomp((0, 0, 1)), trials=16, seed=42
        )
        assert res.value == 3
        assert res.certified
        assert res.method == "oracle"
        assert res.witness.hom.dim == 3
        # the oracle ran on 4x7-or-smaller vertex blocks of the 3-parameter family
        hs = realize_pair(alg, ProjDecomp((0, 1, 0)), ProjDecomp((0, 0, 1)))
        assert hs.r1.total_dim == 4 and hs.r0.total_dim == 7


def test_criterion_03_doubled_pair_and_scan():
    alg = load_fixture("ALG-A")
    with Timer("criterion 3: r(P(2)^2, P(3)^2) = 8 and scan flags t=2", 2.0):
        res = generic_rank(
            alg, ProjDecomp((0, 2, 0)), ProjDecomp((0, 0, 2)), trials=8, seed=42
        )
        assert res.value == 8
        assert res.certified
        assert res.method == "dimension-bound"
        scan = additivity_scan(
            alg, ProjDecomp((0, 1, 0)), ProjDecomp((0, 0, 1)),
            t_max=2, trials=8, seed=42,
        )
        assert scan.r_values == [3, 8]
        assert scan.violations == [2]


def test_criterion_04_cokernel_module_and_double():
    alg = load_fixture("ALG-A")
    with Timer("criterion 4: Cok f^(1,0,0) tau-regular; double certified-no", 2.0):
        m = cok_f_100(alg)
        v = is_tau_regular(m, trials=8, seed=42)
        assert v.is_yes()
        v2 = is_tau_regular(direct_sum([m, m]), trials=8, seed=42)
        assert v2.outcome == "certified-no"
        assert v2.witness.rank() == 8


def test_criterion_05_alg_b_sum():
    alg = load_fixture("ALG-B")
    with Timer("criterion 5: ALG-B S(2)+S(3) tau-regular, pd 2, not tau-rigid", 1.0):
        m = direct_sum([simple(alg, 2), simple(alg, 3)])
        rep = hierarchy_report(m, trials=8, seed=42)
        assert rep.tau_regular
        assert rep.pd.kind == "finite" and rep.pd.value == 2
        assert not rep.tau_rigid


def test_criterion_06_reduction_fixture():
    alg = load_fixture("ALG-B0")
    with Timer("criterion 6: ALG-B0 reduction of P(2)+I(2)+S(3)", 1.0):
        m = direct_sum([projective(alg, 2), injective(alg, 2), simple(alg, 3)])
        ann = annihilator(m)
        ab = alg.element_from_terms([(1, ("a", "b"))])
        assert ann == Ideal(alg, [ab])
        report = reduce_and_compare(m, trials=8, seed=42)
        assert report.parent.pd.value == 1
        assert report.quotient.pd.value == 2
        assert not report.parent.tau_rigid
        assert report.parent.verdict.is_yes()
        assert report.quotient.verdict.outcome == "certified-no"


def test_criterion_07_two_vertex_fixture():
    alg = load_fixture("ALG-C")
    with Timer("criterion 7: ALG-C/(a) Kronecker; regularity flips; pd infinite", 1.0):
        ideal = Ideal(alg, [alg.arrow_element("a")])
        quot = alg.quotient(ideal)
        assert quot.dim == 4
        assert len(quot.vertices) == 2
        assert quot.dims_of_projective(1) == (1, 0)
        assert quot.dims_of_projective(2) == (2, 1)
        n = direct_sum([simple(alg, 1), simple(alg, 2)])
        report = reduce_and_compare(n, ideal=ideal, trials=8, seed=42)
        assert report.quotient.verdict.is_yes()
        assert report.parent.verdict.outcome == "certified-no"
        # the certificate: omega S(1) = S(2) and omega S(2) = S(1)^2
        assert syzygy(simple(alg, 1)).dims == (0, 1)
        assert syzygy(simple(alg, 2)).dims == (2, 0)
        assert report.parent.pd.kind == "infinite"


def test_criterion_08_property_suite():
    with Timer("criterion 8: property sweep over random modules", 60.0):
        rng = SeedStream(20260808)
        per_fixture = 40
        modules = {}
        for fi, name in enumerate(FIXTURE_NAMES):
            alg = load_fixture(name)
            modules[name] = [
                random_module(alg, rng.split(1000 * fi + k), max_total_dim=9)
                for k in range(per_fixture)
            ]
        assert sum(len(v) for v in modules.values()) >= 200

        checked_pairs = 0
        checked_complexes = 0
        for fi, name in enumerate(FIXTURE_NAMES):
            alg = load_fixture(name)
            mods = modules[name]
            projs = {i: projective(alg, i) for i in alg.vertices}
            injs = {i: injective(alg, i) for i in alg.vertices}
            for k, m in enumerate(mods):
                # (a) Hom dimensions against the dimension vector
                for i in alg.vertices:
                    assert hom_dim(projs[i], m) == m.vertex_dim(i)
                    assert hom_dim(m, injs[i]) == m.vertex_dim(i)
                # (b) e(M) <= E(M)
                t = tau(m)
                big_e = 0 if t.is_zero() else hom_dim(m, t)
                little_e = ext1_dim(m, m)
                assert little_e <= big_e
                # (d) tau(M) = 0 iff M projective
                assert t.is_zero() == syzygy(m).is_zero()
                # (f) faithful tau-rigid modules have pd <= 1
                if big_e == 0 and annihilator(m).dim == 0:
                    assert proj_dim(m, cap=10).le(1)
                # (g) hierarchy edges (asserted inside hierarchy_report)
                hierarchy_report(m, trials=2, seed=100 + k)
                # (c) AR formula on pairs
                n = mods[(k + 1) % len(mods)]
                assert ar_formula_check(m, n)
                checked_pairs += 1
            # (e) rank identity under presentation reduction
            for k in range(20):
                cx = random_presentation(alg, rng.split(7000 + 100 * fi + k))
                c_min, dim_id, _ = reduce_presentation(cx)
                assert cx.rank() == c_min.rank() + dim_id
                checked_complexes += 1
        assert checked_pairs >= 200
        assert checked_complexes >= 100


def test_criterion_09_oracle_equivalence():
    with Timer("criterion 9: randomized rank equals symbolic oracle", 30.0):
        mismatches = 0
        spaces = 0
        for name in FIXTURE_NAMES:
            alg = load_fixture(name)
            n = alg.quiver.n
            choices = list(itertools.product(range(2), repeat=n))
            for m1 in choices:
                for m0 in choices:
                    p1, p0 = ProjDecomp(m1), ProjDecomp(m0)
                    hs = realize_pair(alg, p1, p0)
                    if hs.dim > 12 or hs.r1.total_dim > 40 or hs.r0.total_dim > 40:
                        continue
                    spaces += 1
                    res = generic_rank(alg, p1, p0, trials=16, seed=42)
                    oracle = sum(
                        poly_rank(pm) for pm in hs.generic_vertex_matrices().values()
                    )
                    if res.value != oracle:
                        mismatches += 1
        assert spaces > 100
        assert mismatches == 0


def test_criterion_10_hereditary_additivity():
    with Timer("criterion 10: hereditary scans, no violations, all certified", 30.0):
        for name in ("ALG-K", "ALG-B0"):
            alg = load_fixture(name)
            n = alg.quiver.n
            choices = list(itertools.product(range(3), repeat=n))
            for m1 in choices:
                for m0 in choices:
                    p1, p0 = ProjDecomp(m1), ProjDecomp(m0)
                    report = additivity_scan(
                        alg, p1, p0, t_max=4, trials=2, seed=42,
                        oracle_max_params=64,
                    )
                    assert report.violations == [], (name, m1, m0, report.r_values)
                    assert all(report.certified), (
                        name, m1, m0, report.r_values, report.methods,
                    )
