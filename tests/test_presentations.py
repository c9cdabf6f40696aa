import itertools
import math
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from taurank import linalg, presentations
from taurank.algebra import Ideal, NotFiniteDimensional, build_algebra
from taurank.artheory import tau
from taurank.fields import DEFAULT_PRIME, QQ, PrimeField, SeedStream
from taurank.fixtures import FIXTURE_NAMES, FIXTURE_SOURCES, load_fixture
from taurank.linalg import Matrix
from taurank.polyrank import OracleBudgetError, Poly, PolyMatrix, poly_rank
from taurank.presentations import (
    COEFF_BOUND,
    HomSpace,
    ProjDecomp,
    additivity_scan,
    combine_complexes,
    complex_from_coeffs,
    cover_upper_bound,
    generic_rank,
    min_presentation,
    random_module,
    random_presentation,
    realize_pair,
    reduce_presentation,
)
from taurank.quiver import parse_quiver_file
from taurank.reps import (
    ProjRealization,
    cokernel,
    direct_sum,
    hom_dim,
    iso_test,
    projective,
    simple,
    zero_rep,
)

from helpers import conjugate, echelon_rank


def f_lambda(alg_a, lam):
    """The one-parameter-family map P(2) -> P(3) with f(e2) = sum lam_i b_i."""
    p1, p0 = ProjDecomp((0, 1, 0)), ProjDecomp((0, 0, 1))
    return complex_from_coeffs(alg_a, p1, p0, [Fraction(x) for x in lam])


def test_poly_rank_single_variable():
    pm = PolyMatrix(1, 1, 1, [[Poly.variable(1, 0)]])
    assert poly_rank(pm) == 1


def test_poly_rank_two_by_two():
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    pm = PolyMatrix(2, 2, 2, [[x, y], [y, x]])
    assert poly_rank(pm) == 2


def test_poly_rank_budget():
    pm = PolyMatrix(50, 50, 1, [[Poly(1) for _ in range(50)] for _ in range(50)])
    with pytest.raises(OracleBudgetError):
        poly_rank(pm)


def test_poly_rank_of_alg_a_intertwiner_family(alg_a):
    # the 3-parameter family Hom(P(2), P(3)) has generic rank 3
    hs = realize_pair(alg_a, ProjDecomp((0, 1, 0)), ProjDecomp((0, 0, 1)))
    assert hs.dim == 3
    mats = hs.generic_vertex_matrices()
    total = sum(poly_rank(pm) for pm in mats.values())
    assert total == 3


def test_poly_rank_bounds_specializations(alg_a):
    hs = realize_pair(alg_a, ProjDecomp((0, 1, 0)), ProjDecomp((0, 0, 1)))
    mats = hs.generic_vertex_matrices()
    rng = SeedStream(11)
    for trial in range(6):
        sub = rng.split(trial)
        point = [Fraction(sub.randint(-50, 50)) for _ in range(hs.dim)]
        spec = sum(pm.evaluate(point).rank() for pm in mats.values())
        assert spec <= 3
    # attained at a generic point
    point = [Fraction(1), Fraction(2), Fraction(5)]
    assert sum(pm.evaluate(point).rank() for pm in mats.values()) == 3


def test_min_presentation_of_projective(alg_a):
    cx = min_presentation(projective(alg_a, 2))
    assert cx.p1.is_zero()
    assert cx.p0 == ProjDecomp((0, 1, 0))
    assert cx.rank() == 0


def test_min_presentation_simple_alg_b(alg_b):
    cx = min_presentation(simple(alg_b, 2))
    assert cx.p1 == ProjDecomp((1, 0, 0))
    assert cx.p0 == ProjDecomp((0, 1, 0))
    assert cx.rank() == 1


def test_min_presentation_sum_alg_b(alg_b):
    m = direct_sum([simple(alg_b, 2), simple(alg_b, 3)])
    cx = min_presentation(m)
    assert cx.p1 == ProjDecomp((1, 1, 0))
    assert cx.p0 == ProjDecomp((0, 1, 1))
    assert cx.rank() == 2
    coker, _ = cokernel(cx.map)
    assert iso_test(coker, m)


def test_min_presentation_of_zero(alg_b):
    cx = min_presentation(zero_rep(alg_b))
    assert cx.p1.is_zero() and cx.p0.is_zero()
    assert cx.rank() == 0


def test_min_presentation_rank_is_iso_invariant(alg_b):
    m = direct_sum([simple(alg_b, 2), projective(alg_b, 3), simple(alg_b, 3)])
    base = min_presentation(m).rank()
    rng = SeedStream(17)
    for t in range(3):
        assert min_presentation(conjugate(m, rng.split(t))).rank() == base


def test_generic_rank_claim_one(alg_a):
    res = generic_rank(
        alg_a, ProjDecomp((0, 1, 0)), ProjDecomp((0, 0, 1)), trials=16, seed=42
    )
    assert res.value == 3
    assert res.certified
    assert res.method == "oracle"
    assert res.params == 3
    assert res.witness.rank() == 3


def test_generic_rank_claim_two(alg_a):
    res = generic_rank(
        alg_a, ProjDecomp((0, 2, 0)), ProjDecomp((0, 0, 2)), trials=8, seed=42
    )
    assert res.value == 8
    assert res.certified
    assert res.method == "dimension-bound"
    assert res.upper_bound == 8  # dim P(2)^2: injectivity bound


def test_generic_rank_identity_pair(alg_b):
    res = generic_rank(alg_b, ProjDecomp((0, 0, 1)), ProjDecomp((0, 0, 1)),
                       trials=4, seed=1)
    dim_p3 = sum(alg_b.dims_of_projective(3))
    assert res.value == dim_p3
    assert res.certified


def test_generic_rank_empty_target(alg_b):
    res = generic_rank(alg_b, ProjDecomp((1, 1, 0)), ProjDecomp((0, 0, 0)),
                       trials=2, seed=3)
    assert res.value == 0
    assert res.certified


def test_generic_rank_monotone_and_dominates_samples(alg_a):
    p1, p0 = ProjDecomp((0, 1, 0)), ProjDecomp((0, 0, 1))
    r_small = generic_rank(alg_a, p1, p0, trials=1, seed=5)
    r_big = generic_rank(alg_a, p1, p0, trials=12, seed=5)
    assert r_small.value <= r_big.value
    f = f_lambda(alg_a, (1, 0, 0))
    res = generic_rank(alg_a, p1, p0, trials=4, seed=5, extra_samples=[f.map])
    assert f.rank() <= res.value


def test_rank_of_special_lambda_map(alg_a):
    assert f_lambda(alg_a, (1, 0, 0)).rank() == 3
    assert f_lambda(alg_a, (0, 0, 0)).rank() == 0
    assert f_lambda(alg_a, (2, -3, 7)).rank() == 3


def test_hom_tables_memo_holds_the_last_pair(alg_k):
    p1, p0 = ProjDecomp((1, 2)), ProjDecomp((2, 1))
    first = realize_pair(alg_k, p1, p0)
    tables = alg_k.hom_tables
    again = realize_pair(alg_k, p1, p0)
    assert alg_k.hom_tables is tables and again.items is first.items
    coeffs = first.sample_coeffs(SeedStream(3))
    rank = first.morphism_from_coeffs(coeffs).rank()
    other = realize_pair(alg_k, p0, p1)
    assert other.items is not first.items
    assert alg_k.hom_tables[0] == ((2, 1), (1, 2), "Q")
    over_fp = realize_pair(alg_k, p1, p0, PrimeField(101))
    assert over_fp.items is not first.items
    assert alg_k.hom_tables[0] == ((1, 2), (2, 1), "F_101")
    # a replaced entry stays with the HomSpaces that hold it
    assert first.morphism_from_coeffs(coeffs).rank() == rank


def test_shared_hom_tables_survive_a_scan(alg_b0):
    p1, p0 = ProjDecomp((1, 0, 1)), ProjDecomp((0, 2, 1))
    additivity_scan(alg_b0, p1, p0, t_max=3, trials=2)
    tables = alg_b0.hom_tables
    assert tables[0] == ((3, 0, 3), (0, 6, 3), "Q")
    alg_b0.hom_tables = None
    realize_pair(alg_b0, p1.scale(3), p0.scale(3))
    # all but the gather plan, which the scan built and the rebuild has not
    assert alg_b0.hom_tables[:-1] == tables[:-1]


def test_combine_complexes_with_itself_and_with_zero(alg_a):
    f = f_lambda(alg_a, (1, 0, 0))
    d2 = combine_complexes(f, f)
    assert d2.rank() == 6
    assert d2.p1 == ProjDecomp((0, 2, 0))
    z = min_presentation(zero_rep(alg_a))
    assert combine_complexes(combine_complexes(z, z), z).rank() == 0
    assert combine_complexes(f, z).p0 == f.p0


def test_reduce_presentation_identity_complex(alg_b):
    hs = realize_pair(alg_b, ProjDecomp((0, 0, 1)), ProjDecomp((0, 0, 1)))
    coeffs = [QQ.one if alg_b.basis[x].length == 0 else QQ.zero
              for (_, _, x) in hs.items]
    cx = complex_from_coeffs(alg_b, ProjDecomp((0, 0, 1)), ProjDecomp((0, 0, 1)),
                             coeffs)
    c_min, dim_id, zero_part = reduce_presentation(cx)
    assert c_min.p1.is_zero() and c_min.p0.is_zero()
    assert dim_id == sum(alg_b.dims_of_projective(3))
    assert zero_part.is_zero()


def test_reduce_presentation_zero_map(alg_b):
    p1 = ProjDecomp((1, 0, 0))
    cx = complex_from_coeffs(alg_b, p1, ProjDecomp((0, 0, 0)), [])
    c_min, dim_id, zero_part = reduce_presentation(cx)
    assert c_min.p1.is_zero() and c_min.p0.is_zero()
    assert dim_id == 0
    assert zero_part == p1


def test_reduce_presentation_generic_map_is_minimal(alg_a):
    f = f_lambda(alg_a, (3, 1, -2))
    c_min, dim_id, zero_part = reduce_presentation(f)
    assert dim_id == 0
    assert zero_part.is_zero()
    assert c_min.p1 == f.p1 and c_min.p0 == f.p0


def test_reduce_presentation_rank_identity_random(alg_b, alg_a):
    rng = SeedStream(23)
    for t in range(25):
        for alg in (alg_b, alg_a):
            cx = random_presentation(alg, rng.split(hash((t, alg.dim)) % 10**6))
            c_min, dim_id, _ = reduce_presentation(cx)
            assert cx.rank() == c_min.rank() + dim_id


def test_additivity_scan_flags_alg_a(alg_a):
    report = additivity_scan(
        alg_a, ProjDecomp((0, 1, 0)), ProjDecomp((0, 0, 1)),
        t_max=2, trials=8, seed=42,
    )
    assert report.r_values == [3, 8]
    assert report.violations == [2]
    assert all(report.certified)


def test_additivity_scan_kronecker_no_violations(alg_k):
    report = additivity_scan(
        alg_k, ProjDecomp((0, 1)), ProjDecomp((1, 1)), t_max=4, trials=4, seed=7
    )
    assert report.violations == []
    assert all(report.certified)
    assert report.r_values == [report.r_values[0] * t for t in range(1, 5)]


def test_additivity_scan_zero_target(alg_b):
    report = additivity_scan(
        alg_b, ProjDecomp((1, 0, 0)), ProjDecomp((0, 0, 0)), t_max=3, trials=2, seed=1
    )
    assert report.r_values == [0, 0, 0]
    assert report.violations == []


def test_scan_superadditive_floor(alg_a):
    report = additivity_scan(
        alg_a, ProjDecomp((1, 1, 0)), ProjDecomp((0, 1, 1)), t_max=3, trials=3, seed=9
    )
    r = report.r_values
    assert all(r[t] >= r[t - 1] + r[0] for t in range(1, len(r)))


def test_combine_complexes_rank_adds(alg_a):
    fa = f_lambda(alg_a, (1, 0, 0))
    fb = f_lambda(alg_a, (0, 1, 0))
    both = combine_complexes(fa, fb)
    assert both.rank() == 6
    assert both.p0 == ProjDecomp((0, 0, 2))


@pytest.mark.parametrize("field", [QQ, PrimeField(DEFAULT_PRIME)], ids=["Q", "Fp"])
def test_block_sum_ranks_match_a_fresh_elimination(all_fixture_algebras, field):
    """Levels 2 and 3 of every {0,1,2}^n pair of every fixture: the rank
    each vertex matrix of a block sum memoizes equals its elimination.
    Coefficients in [-1, 1] give blocks of every rank."""
    for name, alg in all_fixture_algebras.items():
        vecs = list(itertools.product(range(3), repeat=alg.quiver.n))
        for k, (m1, m0) in enumerate(itertools.product(vecs, vecs)):
            hs = realize_pair(alg, ProjDecomp(m1), ProjDecomp(m0), field)
            one = complex_from_coeffs(alg, ProjDecomp(m1), ProjDecomp(m0),
                                      hs.sample_coeffs(SeedStream(k), 1), field)
            two = combine_complexes(one, one)
            three = combine_complexes(two, one)
            for cx in (two, three):
                for m in cx.map.maps.values():
                    assert m._rank == echelon_rank(m), (name, m1, m0)


def test_block_sum_rank_checks_every_cell(monkeypatch, alg_a):
    """The memo of a block sum is the sum of its blocks' ranks, whatever
    the placement, so only the cell check of combine_complexes catches
    blocks placed at the wrong lines."""
    fa = f_lambda(alg_a, (1, 0, 0))
    fb = f_lambda(alg_a, (0, 1, 2))
    both = combine_complexes(fa, fb)
    v = 1  # two 3 x 3 blocks of rank 2
    a, b, m = fa.map.maps[v], fb.map.maps[v], both.map.maps[v]
    rows_a, rows_b = list(range(a.nrows)), list(range(a.nrows, m.nrows))
    cols_a, cols_b = list(range(a.ncols)), list(range(a.ncols, m.ncols))
    assert m.shape() == (a.nrows + b.nrows, a.ncols + b.ncols)
    assert m._rank == a.rank() + b.rank()
    block_sum = Matrix.block_sum

    def placed(rows_fa, cols_fa, rows_fb, cols_fb):
        """combine_complexes(fa, fb) with the blocks at vertex v placed
        cell by cell at these lines, the memo the sum of their ranks."""
        def fake(field, blocks):
            if blocks[0][0] is not a:
                return block_sum(field, blocks)
            cells = [[0] * m.ncols for _ in range(m.nrows)]
            for blk, rows, cols in ((a, rows_fa, cols_fa), (b, rows_fb, cols_fb)):
                for i, row in zip(rows, blk.rows):
                    for j, x in zip(cols, row):
                        cells[i][j] = x
            out = Matrix(field, cells, m.ncols)
            out._rank = a.rank() + b.rank()
            return out

        with monkeypatch.context() as patch:
            patch.setattr(Matrix, "block_sum", staticmethod(fake))
            return combine_complexes(fa, fb)

    assert placed(rows_a, cols_a, rows_b, cols_b).map.maps[v] == m
    bad = [
        # a and b have the same shape and rank, so only the cells tell
        (rows_b, cols_b, rows_a, cols_a),  # swapped
        (rows_a[::-1], cols_a, rows_b, cols_b),  # reversed
        (rows_a, cols_a, rows_b, cols_b[1:] + cols_b[:1]),  # rotated
        (rows_a, cols_a, rows_a, cols_b),  # rows used twice
    ]
    for case in bad:
        with pytest.raises(AssertionError, match="block sum"):
            placed(*case)
    assert a.rank() == b.rank()
    # sizes that do not fit the blocks raise instead of placing
    with pytest.raises(ValueError, match="group sizes"):
        Matrix.block_sum(a.field, [(a, [2], [3]), (b, [3], [3])])


def test_combine_complexes_rejects_a_perturbed_sum(monkeypatch, alg_a):
    fa = f_lambda(alg_a, (1, 0, 0))
    fb = f_lambda(alg_a, (0, 1, 2))
    build = HomSpace.morphism_from_coeffs

    def perturbed(hs, coeffs):
        fmor = build(hs, coeffs)
        fmor.maps[1].rows[0][-1] += 1  # a cell between the two blocks
        return fmor

    monkeypatch.setattr(HomSpace, "morphism_from_coeffs", perturbed)
    with pytest.raises(AssertionError, match="block sum"):
        combine_complexes(fa, fb)


def test_combine_complexes_rejects_complexes_over_different_fields(alg_a):
    p1, p0 = ProjDecomp((0, 1, 0)), ProjDecomp((0, 0, 1))
    over_q = generic_rank(alg_a, p1, p0).witness
    over_f7 = generic_rank(alg_a, p1, p0, field=PrimeField(7)).witness
    with pytest.raises(ValueError, match=r"different fields \(Q, F_7\)"):
        combine_complexes(over_q, over_f7)
    with pytest.raises(ValueError, match=r"different fields \(F_7, Q\)"):
        combine_complexes(over_f7, over_q)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_generic_rank_rejects_a_foreign_extra_sample(alg_a, alg_b, field):
    """Over F_7 a rank-8 sample of the doubled pair used to give value 8
    above the bound 4; over Q it tripped the oracle's assertion."""
    p1, p0 = ProjDecomp((0, 1, 0)), ProjDecomp((0, 0, 1))
    doubled = generic_rank(alg_a, p1.scale(2), p0.scale(2), field=field).witness
    other_field = generic_rank(alg_a, p1, p0, field=PrimeField(11)).witness
    other_algebra = generic_rank(alg_b, ProjDecomp((0, 1, 0)), ProjDecomp((0, 0, 1)),
                                 field=field).witness
    for foreign in (doubled, other_field, other_algebra):
        with pytest.raises(ValueError, match="extra sample"):
            generic_rank(alg_a, p1, p0, field=field, extra_samples=[foreign.map])
    own = generic_rank(alg_a, p1, p0, field=field, seed=7).witness
    assert generic_rank(alg_a, p1, p0, field=field, extra_samples=[own.map]).value == 3


def test_hom_space_dim_matches_intertwiner_solver(alg_a, alg_b):
    for alg, p1m, p0m in [
        (alg_a, (0, 1, 0), (0, 0, 1)),
        (alg_a, (1, 1, 0), (0, 1, 1)),
        (alg_b, (1, 0, 1), (0, 1, 1)),
    ]:
        hs = realize_pair(alg, ProjDecomp(p1m), ProjDecomp(p0m))
        assert hs.dim == hom_dim(hs.r1.rep, hs.r0.rep)


def test_cover_bound_dominates_value(alg_a, alg_b):
    rng = SeedStream(31)
    for t in range(10):
        for alg in (alg_a, alg_b):
            cx = random_presentation(alg, rng.split(hash((t, alg.dim)) % 10**6))
            hs = cx.hom
            assert cx.rank() <= cover_upper_bound(hs)


def test_random_module_respects_relations(alg_a):
    from taurank.reps import check_relations

    rng = SeedStream(37)
    for t in range(8):
        m = random_module(alg_a, rng.split(t))
        check_relations(m)
        assert 0 < m.dim_total <= 9


def test_scan_t3_stays_in_superadditive_window(alg_a):
    # r_3 for the triple-arrow fixture is not pinned; superadditivity and
    # the injectivity bound confine it to [11, 12]
    report = additivity_scan(
        alg_a, ProjDecomp((0, 1, 0)), ProjDecomp((0, 0, 1)),
        t_max=3, trials=8, seed=42,
    )
    assert report.r_values[0] == 3 and report.r_values[1] == 8
    assert 11 <= report.r_values[2] <= 12
    assert 2 in report.violations


def test_generic_rank_prime_field(alg_a):
    from taurank.fields import PrimeField

    f = PrimeField(10007)
    res = generic_rank(
        alg_a, ProjDecomp((0, 1, 0)), ProjDecomp((0, 0, 1)),
        trials=16, seed=42, field=f,
    )
    # the symbolic oracle is rational-only, so certification can come only
    # from the covering bound; the sampled value still reaches 3
    assert res.value == 3
    assert res.method != "oracle"


def test_witness_is_lowest_trial_attaining_max(alg_a):
    p1, p0 = ProjDecomp((0, 1, 0)), ProjDecomp((0, 0, 1))
    res1 = generic_rank(alg_a, p1, p0, trials=6, seed=11)
    res2 = generic_rank(alg_a, p1, p0, trials=6, seed=11)
    assert res1.witness.coeffs == res2.witness.coeffs
    assert res1.witness.rank() == res1.value


def handful_of_pairs(n):
    """A few (P1, P0) multiplicity pairs on an n-vertex quiver."""
    ones, first, last = (1,) * n, (1,) + (0,) * (n - 1), (0,) * (n - 1) + (1,)
    return [
        (ones, ones),
        (first, last),
        (last, first),
        (tuple(2 * x for x in last), tuple(a + b for a, b in zip(first, last))),
        ((0,) * n, ones),
    ]


def assert_assembly_matches_poly(hs, coeffs):
    """morphism_from_coeffs against the generic matrices evaluated at coeffs."""
    fmor = hs.morphism_from_coeffs(coeffs)
    for v, pm in hs.generic_vertex_matrices().items():
        assert fmor.maps[v] == pm.evaluate(coeffs, hs.field)


def test_morphism_assembly_matches_generic_matrices(all_fixture_algebras):
    fp = PrimeField(2147483647)
    for alg in all_fixture_algebras.values():
        for t, (m1, m0) in enumerate(handful_of_pairs(alg.quiver.n)):
            hs = realize_pair(alg, ProjDecomp(m1), ProjDecomp(m0))
            rng = SeedStream(t)
            integral = hs.sample_coeffs(rng.split(0), 50)
            assert_assembly_matches_poly(hs, integral)
            fractional = [Fraction(c, 2 + k % 3) for k, c in enumerate(integral)]
            assert_assembly_matches_poly(hs, fractional)
            hs_p = realize_pair(alg, ProjDecomp(m1), ProjDecomp(m0), fp)
            assert_assembly_matches_poly(hs_p, hs_p.sample_coeffs(rng.split(1)))


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(FIXTURE_NAMES), st.integers(0, 10**6))
def test_coeffs_round_trip_through_the_morphism(fixture, seed):
    alg, fp = load_fixture(fixture), PrimeField(DEFAULT_PRIME)
    for t, (m1, m0) in enumerate(handful_of_pairs(alg.quiver.n)):
        rng = SeedStream(seed).split(t)
        hs = realize_pair(alg, ProjDecomp(m1), ProjDecomp(m0))
        integral = hs.sample_coeffs(rng.split(0), 50)
        fractional = [Fraction(c, 1 + k % 3) for k, c in enumerate(integral)]
        hs_p = realize_pair(alg, ProjDecomp(m1), ProjDecomp(m0), fp)
        for h, coeffs in ((hs, integral), (hs, fractional),
                          (hs_p, hs_p.sample_coeffs(rng.split(1)))):
            assert h.coeffs_of_morphism(h.morphism_from_coeffs(coeffs)) == coeffs


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(FIXTURE_NAMES), st.booleans(), st.integers(0, 10**6))
def test_presentation_coeffs_rebuild_its_map(fixture, prime, seed):
    field = PrimeField(DEFAULT_PRIME) if prime else QQ
    m = random_module(load_fixture(fixture), SeedStream(seed), field=field)
    cx = min_presentation(m)
    assert cx.hom.morphism_from_coeffs(cx.coeffs).maps == cx.map.maps


def test_realizations_keep_their_field_and_repeat(alg_a, alg_k):
    fp = PrimeField(101)
    for alg in (alg_a, alg_k):
        mults = (1,) * (alg.quiver.n - 1) + (2,)
        rq, rp = ProjRealization(alg, mults, QQ), ProjRealization(alg, mults, fp)
        assert rq.rep.field.name == "Q" and rp.rep.field.name == "F_101"
        for a in alg.quiver.arrows:
            assert all(type(x) is int for row in rq.rep.arrows[a.name].rows for x in row)
            assert all(type(x) is int for row in rp.rep.arrows[a.name].rows for x in row)
        for field, first in ((QQ, rq), (PrimeField(101), rp)):
            again = ProjRealization(alg, mults, field)
            assert again.rep == first.rep and again.offsets == first.offsets


def test_shared_realizations_survive_their_callers(alg_a, alg_b):
    """Scans, presentations and tau reuse cached realization reps,
    offsets and runs; none of them may alter one, so each still equals a
    fresh direct sum laid out by the algebra's paths."""
    additivity_scan(alg_a, ProjDecomp((1, 1, 0)), ProjDecomp((0, 1, 1)), t_max=2, trials=2)
    m = random_module(alg_b, SeedStream(5))
    reduce_presentation(min_presentation(m))
    tau(m)
    for alg in (alg_a, alg_b, alg_a.opposite(), alg_b.opposite()):
        for (mults, _), (rep, offsets, runs) in alg.realization_cache.items():
            if any(mults):
                summands = [i for i in alg.quiver.vertices for _ in range(mults[i - 1])]
                fresh = direct_sum([projective(alg, i, rep.field) for i in summands])
                assert rep == fresh
                # summand s starts at vertex v after the earlier summands' paths
                assert offsets == [
                    {v: sum(len(alg.paths(i, v)) for i in summands[:s])
                     for v in alg.quiver.vertices}
                    for s in range(len(summands))
                ]
                assert runs == {v: [m * len(alg.paths(i, v))
                                    for i, m in zip(alg.quiver.vertices, mults)]
                                for v in alg.quiver.vertices}


def reference_cover_bound(hs):
    """The block-cover bound computed afresh from the pair's multiplicities,
    with no memo and no scaling."""
    alg, m1, m0 = hs.algebra, hs.r1.mults, hs.r0.mults
    support = {v: set() for v in alg.quiver.vertices}
    for i in (i for i in alg.quiver.vertices if m1[i - 1]):
        for j in (j for j in alg.quiver.vertices if m0[j - 1]):
            for x in alg.paths(j, i):
                for v in alg.right_mult_blocks(i, x):
                    support[v].add((i, j))
    total = 0
    for v in alg.quiver.vertices:
        col_types = sorted({i for i, _ in support[v]})
        col_dim = {i: m1[i - 1] * len(alg.paths(i, v)) for i in col_types}
        row_dim = {j: m0[j - 1] * len(alg.paths(j, v)) for _, j in support[v]}
        best = None
        for csub in itertools.chain.from_iterable(
            itertools.combinations(col_types, r) for r in range(len(col_types) + 1)
        ):
            rneeded = {j for (i, j) in support[v] if i not in csub}
            cost = sum(col_dim[i] for i in csub) + sum(row_dim[j] for j in rneeded)
            if best is None or cost < best:
                best = cost
        total += best or 0
    return total


QUOTIENTS = {"ALG-B0/(a*b)": ("ALG-B0", ("a", "b")), "ALG-C/(a)": ("ALG-C", ("a",))}


def named_algebra(name, fresh):
    """A fixture, its opposite (name^op) or a quotient in QUOTIENTS: over
    the shared fixture, or with `fresh` over one built anew."""
    base, word = QUOTIENTS.get(name, (name.removesuffix("^op"), None))
    alg = build_algebra(*parse_quiver_file(FIXTURE_SOURCES[base])) if fresh else load_fixture(base)
    if word:
        return alg.quotient(Ideal.from_generators(alg, [alg.element_from_terms([(1, word)])]))
    return alg.opposite() if name.endswith("^op") else alg


@pytest.mark.parametrize("name", [*FIXTURE_NAMES, *(f + "^op" for f in FIXTURE_NAMES), *QUOTIENTS])
def test_cover_bound_memo_matches_the_unmemoized_bound(name):
    """Warm (memo filled as the loop goes) and cold (a fresh algebra whose
    memo is emptied before each call), at every t <= 4: the memo and
    cover(t·P1, t·P0) = t·cover(P1, P0) change no bound, and on these
    algebras the term rank equals the block-cover bound."""
    warm, cold = named_algebra(name, fresh=False), named_algebra(name, fresh=True)
    choices = list(itertools.product(range(3), repeat=warm.quiver.n))
    for m1, m0 in itertools.product(choices, repeat=2):
        for t in range(1, 5):
            p1, p0 = ProjDecomp(m1).scale(t), ProjDecomp(m0).scale(t)
            hs = realize_pair(warm, p1, p0)
            want = reference_cover_bound(hs)
            assert cover_upper_bound(hs) == want
            cold.cover_bounds.clear()
            # the bound reads only the algebra and the two realizations
            assert cover_upper_bound(SimpleNamespace(
                algebra=cold, r1=ProjRealization(cold, p1.mults), r0=ProjRealization(cold, p0.mults)
            )) == want
            assert len(cold.cover_bounds) == (not p1.is_zero() or not p0.is_zero())
    # one entry per nonzero primitive pair
    assert all(math.gcd(*m1, *m0) == 1 for m1, m0 in warm.cover_bounds)


THIN = """
vertices: 1 2 3
arrow a0: 3 -> 2
arrow a1: 1 -> 3
arrow a2: 2 -> 2
arrow a3: 1 -> 2
relations:
a2*a0
a2*a2
a2*a3
"""


@pytest.mark.parametrize("field", [QQ, PrimeField(DEFAULT_PRIME)], ids=["Q", "Fp"])
def test_term_rank_certifies_what_the_block_cover_left_open(field):
    """Right multiplication by a2 is thin: the term rank of the generic map
    is below every cover by whole type blocks, and it certifies each level
    that the block cover left to the oracle over Q and open over F_p."""
    alg = build_algebra(*parse_quiver_file(THIN))
    for m1, m0, bounds, r in (((0, 1, 0), (1, 0, 0), (1, 2), [1, 2, 3]),
                              ((0, 1, 1), (1, 0, 1), (3, 4), [3, 6])):
        p1, p0 = ProjDecomp(m1), ProjDecomp(m0)
        hs = realize_pair(alg, p1, p0, field)
        assert (cover_upper_bound(hs), reference_cover_bound(hs)) == bounds
        report = additivity_scan(alg, p1, p0, t_max=len(r), field=field)
        assert report.r_values == r
        assert report.methods == ["dimension-bound"] * len(r)


def random_bound_quivers(seed, count):
    """`count` seeded .qa texts: 2-3 vertices, 2-4 arrows (loops allowed)
    and a random set of the length-2 monomial relations."""
    rng = SeedStream(seed)
    for k in range(count):
        sub = rng.split(k)
        n = sub.randint(2, 3)
        arrows = [(f"a{x}", sub.randint(1, n), sub.randint(1, n)) for x in range(sub.randint(2, 4))]
        # x*y is y, then x
        relations = [f"{x}*{y}" for x, xs, _ in arrows for y, _, yt in arrows
                     if yt == xs and sub.randint(0, 1)]
        yield "\n".join([f"vertices: {' '.join(map(str, range(1, n + 1)))}",
                         *(f"arrow {a}: {s} -> {t}" for a, s, t in arrows),
                         "relations:", *relations]) + "\n"


def test_term_rank_bound_on_random_bound_quivers(monkeypatch):
    """Over seeded small bound quivers of dimension at most 20, for every
    pair of 0/1 multiplicity vectors: the term rank is at most the block
    cover, at least a sampled rank, and t times as large at t·(P1, P0)."""
    # bigger builds raise, and an infinite one raises before it gets slow
    monkeypatch.setattr("taurank.algebra.MAX_RESIDUES", 20)
    monkeypatch.setattr("taurank.algebra.MAX_TIP_INSERTS", 2048)
    built = 0
    for k, text in enumerate(random_bound_quivers(2027, 60)):
        try:
            alg = build_algebra(*parse_quiver_file(text))
        except (ValueError, NotFiniteDimensional):
            continue
        built += 1
        choices = list(itertools.product((0, 1), repeat=alg.quiver.n))
        for s, (m1, m0) in enumerate(itertools.product(choices, repeat=2)):
            p1, p0 = ProjDecomp(m1), ProjDecomp(m0)
            hs = realize_pair(alg, p1, p0)
            bound = cover_upper_bound(hs)
            assert bound <= reference_cover_bound(hs), text
            sampled = hs.morphism_from_coeffs(hs.sample_coeffs(SeedStream(k).split(s))).rank()
            assert sampled <= bound, text
            for t in (2, 3):
                alg.cover_bounds.clear()
                assert cover_upper_bound(realize_pair(alg, p1.scale(t), p0.scale(t))) == t * bound
    assert built >= 20


def test_oracle_escalation(alg_a, monkeypatch):
    """On ALG-A (P(2), P(3)), whose cover bound 4 is above the maximal rank
    3: when every draw at COEFF_BOUND is zero, the wider draws of the
    escalation reach the oracle's value; when every draw is zero, the
    value stays 0 and uncertified."""
    p1, p0 = ProjDecomp((0, 1, 0)), ProjDecomp((0, 0, 1))
    draw = HomSpace.sample_coeffs

    def zero_at_the_bound(hs, rng, bound=COEFF_BOUND):
        return [0] * hs.dim if bound == COEFF_BOUND else draw(hs, rng, bound)

    monkeypatch.setattr(HomSpace, "sample_coeffs", zero_at_the_bound)
    res = generic_rank(alg_a, p1, p0)
    assert (res.value, res.method, res.upper_bound) == (3, "oracle", 4)
    assert res.witness.rank() == 3 and any(res.witness.coeffs)
    monkeypatch.setattr(HomSpace, "sample_coeffs", lambda hs, rng, bound=COEFF_BOUND: [0] * hs.dim)
    res = generic_rank(alg_a, p1, p0)
    assert (res.value, res.method, res.certified) == (0, None, False)
    assert res.witness.rank() == 0


def per_item_tables(r1, r0):
    """HomSpace's tables built item by item, from each summand pair's
    offsets and `right_mult_blocks`, with no templates and no memo."""
    alg, f = r1.algebra, r1.field
    shapes, first, ncells = [], {}, 0
    for v in alg.quiver.vertices:
        nrows, ncols = r0.rep.vertex_dim(v), r1.rep.vertex_dim(v)
        shapes.append((v, ncells, nrows, ncols))
        first[v] = (ncells, ncols)
        ncells += nrows * ncols
    items, cells, gen_cells = [], [], []
    for s1, (i, _) in enumerate(r1.summands):
        off1 = r1.offsets[s1]
        at, ncols_i = first[i]
        gen_col = off1[i] + alg.paths(i, i).index(alg.idempotent_index[i])
        for s0, (j, _) in enumerate(r0.summands):
            off0 = r0.offsets[s0]
            for px, x in enumerate(alg.paths(j, i)):
                entries = []
                for v, triples in alg.right_mult_blocks(i, x).items():
                    base, ncols = first[v]
                    base += off0[v] * ncols + off1[v]
                    for r, col, c in triples:
                        if f.characteristic and type(c) is not int:
                            c = f.from_fraction(c)
                        entries.append((base + r * ncols + col, c))
                items.append((s1, s0, x))
                cells.append(entries)
                gen_cells.append(at + (off0[i] + px) * ncols_i + gen_col)
    return items, cells, gen_cells, shapes, ncells


def scatter_from_per_item_tables(hs, coeffs):
    """Per vertex, the rows of Σ coeffs[k] · item k, added up cell by cell
    from `per_item_tables`: integral coefficients as ints over Q, the sums
    reduced over F_p."""
    _, cells, _, shapes, ncells = per_item_tables(hs.r1, hs.r0)
    p = hs.field.characteristic
    acc = [0] * ncells
    for coeff, entries in zip(coeffs, cells):
        if not p and coeff.denominator == 1:
            coeff = coeff.numerator
        for cell, c in entries:
            acc[cell] += coeff * c
    if p:
        acc = [x % p for x in acc]
    return {v: [acc[at + r * ncols : at + (r + 1) * ncols] for r in range(nrows)]
            for v, at, nrows, ncols in shapes}


def generic_rows_from_per_item_tables(r1, r0):
    """Per vertex, the rows of the generic morphism Σ x_k · item k, added
    up cell by cell from `per_item_tables`, with no plan."""
    items, cells, _, shapes, ncells = per_item_tables(r1, r0)
    polys = [Poly(len(items)) for _ in range(ncells)]
    for k, entries in enumerate(cells):
        for cell, c in entries:
            polys[cell] += Poly.variable(len(items), k, c)
    return {v: [polys[at + r * ncols : at + (r + 1) * ncols] for r in range(nrows)]
            for v, at, nrows, ncols in shapes}


def assert_generic_matrices_match_the_per_item_rows(hs):
    want = generic_rows_from_per_item_tables(hs.r1, hs.r0)
    got = hs.generic_vertex_matrices()
    assert got.keys() == want.keys()
    for v, rows in want.items():
        pm = got[v]
        assert (pm.nrows, pm.ncols, pm.nvars) == (len(rows), hs.r1.rep.vertex_dim(v), hs.dim)
        assert [[e.terms for e in r] for r in pm.entries] == [[e.terms for e in r] for r in rows]
        # Fraction coefficients: int / int in the oracle's division is a float
        assert all(type(c) is Fraction for r in pm.entries for e in r for c in e.terms.values())


def test_generic_matrices_match_a_per_item_build(all_fixture_algebras):
    """The oracle's matrices read the gather plan; here they are built
    afresh from `right_mult_blocks`, item by item."""
    for alg in all_fixture_algebras.values():
        for m1, m0 in handful_of_pairs(alg.quiver.n):
            for t in (1, 2):
                assert_generic_matrices_match_the_per_item_rows(
                    realize_pair(alg, ProjDecomp(m1).scale(t), ProjDecomp(m0).scale(t)))


def coefficient_lists(field, dim, seed):
    """Coefficient lists that reach every branch of the assembly: over Q
    ints, integral Fractions and non-integral Fractions; over F_p ints
    that are negative or at least p."""
    rng = SeedStream(seed)
    ints = [rng.randint(-60, 60) for _ in range(dim)]
    if not field.characteristic:
        return [ints, [Fraction(c) for c in ints],
                [Fraction(c, 1 + k % 3) for k, c in enumerate(ints)]]
    p = field.characteristic
    return [ints, [c + p * rng.randint(-2, 3) for c in ints]]


def assert_assembly_matches_the_scatter(hs, coeffs):
    fmor = hs.morphism_from_coeffs(coeffs)
    want = scatter_from_per_item_tables(hs, coeffs)
    for v, rows in want.items():
        got = fmor.maps[v]
        assert got.rows == rows and got.field is hs.field
        # cell types too: Q keeps integral cells ints
        assert [[type(x) for x in r] for r in got.rows] == [[type(x) for x in r] for r in rows]


def test_hom_assembly_matches_a_per_item_scatter(all_fixture_algebras):
    for alg in all_fixture_algebras.values():
        for field in (QQ, PrimeField(7), PrimeField(DEFAULT_PRIME)):
            for n, (m1, m0) in enumerate(handful_of_pairs(alg.quiver.n)):
                for t in (1, 2):
                    r1 = ProjRealization(alg, ProjDecomp(m1).scale(t).mults, field)
                    r0 = ProjRealization(alg, ProjDecomp(m0).scale(t).mults, field)
                    alg.hom_tables = None
                    hs = HomSpace(r1, r0)
                    assert hs.items == per_item_tables(r1, r0)[0]
                    for coeffs in coefficient_lists(field, hs.dim, 10 * n + t):
                        assert_assembly_matches_the_scatter(hs, coeffs)


THREE_TERM = """\
# q*y is the basis path q*x plus the basis path w*z
vertices: 1 2 3 4
arrow z: 1 -> 4
arrow w: 4 -> 3
arrow q: 2 -> 3
arrow x: 1 -> 2
arrow y: 1 -> 2
relations:
q*y - q*x - w*z
"""


def test_hom_assembly_adds_the_entries_a_cell_shares():
    alg = build_algebra(*parse_quiver_file(THREE_TERM))
    for field in (QQ, PrimeField(7), PrimeField(DEFAULT_PRIME)):
        for m1, m0 in (((0, 1, 0, 0), (1, 0, 0, 0)), ((0, 2, 0, 0), (2, 0, 0, 0)),
                       ((1, 1, 1, 1), (1, 1, 1, 1)), ((0, 2, 1, 0), (2, 1, 0, 1))):
            hs = realize_pair(alg, ProjDecomp(m1), ProjDecomp(m0), field)
            cells = per_item_tables(hs.r1, hs.r0)[1]
            # right multiplication by x and by y both reach the cell of q*x
            shared = Counter(cell for entries in cells for cell, _ in entries)
            assert max(shared.values()) == 2
            assert_generic_matrices_match_the_per_item_rows(hs)
            for coeffs in coefficient_lists(field, hs.dim, 5):
                assert_assembly_matches_the_scatter(hs, coeffs)
                assert_assembly_matches_poly(hs, coeffs)


def test_morphism_assembly_rejects_a_coefficient_list_of_the_wrong_length(alg_k):
    p = ProjDecomp((1, 1))
    hs = realize_pair(alg_k, p, p)
    assert hs.dim == 4
    for coeffs in ([5], [1] * 7, []):
        with pytest.raises(ValueError, match="coefficients"):
            hs.morphism_from_coeffs(coeffs)
        with pytest.raises(ValueError, match="coefficients"):
            complex_from_coeffs(alg_k, p, p, coeffs)
    assert complex_from_coeffs(alg_k, p, p, [5, 0, 0, 0]).coeffs == [5, 0, 0, 0]


@pytest.mark.parametrize("fixture, m1, m0, field", [
    ("ALG-A", (0, 1, 0), (0, 0, 1), QQ),
    ("ALG-A", (1, 1, 0), (0, 1, 1), PrimeField(DEFAULT_PRIME)),
    ("ALG-B0", (1, 2, 0), (0, 1, 2), QQ),
    ("ALG-K", (2, 1), (1, 2), PrimeField(101)),
])
def test_memoized_ranks_survive_a_scan(monkeypatch, fixture, m1, m0, field):
    """Every matrix a full scan ranks keeps cells whose rank is the memo:
    a fresh Matrix with equal cells has the same rank."""
    ranked, rank = [], Matrix.rank

    def recording_rank(m):
        ranked.append(m)
        return rank(m)

    monkeypatch.setattr(Matrix, "rank", recording_rank)
    additivity_scan(load_fixture(fixture), ProjDecomp(m1), ProjDecomp(m0),
                    t_max=3, trials=2, field=field)
    monkeypatch.undo()
    assert len({id(m) for m in ranked}) < len(ranked)  # the memo was read
    for m in ranked:
        assert m._rank is not None
        assert m.rank() == Matrix(m.field, m.rows, m.ncols).rank() == m._rank


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_hom_space_hands_back_the_morphism_it_built(alg_a, alg_b0, field):
    for alg, m1, m0 in ((alg_b0, (1, 0, 1), (0, 2, 1)), (alg_a, (0, 1, 0), (0, 0, 1))):
        p1, p0 = ProjDecomp(m1), ProjDecomp(m0)
        hs = realize_pair(alg, p1, p0, field)
        coeffs = hs.sample_coeffs(SeedStream(5))
        fmor = hs.morphism_from_coeffs(coeffs)
        assert hs.morphism_from_coeffs(list(coeffs)) is fmor
        assert hs.morphism_from_coeffs(tuple(coeffs)) is fmor
        if field is QQ:  # an int and an equal Fraction are one key
            assert hs.morphism_from_coeffs([Fraction(c) for c in coeffs]) is fmor
        other = hs.morphism_from_coeffs(hs.sample_coeffs(SeedStream(6)))
        assert other is not fmor and other.maps != fmor.maps
        fresh = realize_pair(alg, p1, p0, field).morphism_from_coeffs(coeffs)
        assert fresh is not fmor and fresh.maps == fmor.maps
    # a long run of distinct coefficients keeps only the first BUILT_KEPT
    hs = realize_pair(alg_b0, ProjDecomp((1, 0, 1)), ProjDecomp((0, 2, 1)), field)
    runs = [hs.sample_coeffs(SeedStream(k)) for k in range(presentations.BUILT_KEPT + 5)]
    built = [hs.morphism_from_coeffs(coeffs) for coeffs in runs]
    assert len(hs._built) == presentations.BUILT_KEPT
    assert hs.morphism_from_coeffs(runs[0]) is built[0]
    late = hs.morphism_from_coeffs(runs[-1])
    assert late is not built[-1] and late.maps == built[-1].maps


@pytest.mark.parametrize("field", [QQ, PrimeField(DEFAULT_PRIME)], ids=["Q", "Fp"])
def test_the_witness_is_the_winning_trial(monkeypatch, alg_b0, field):
    built, build = [], HomSpace.morphism_from_coeffs

    def recording(hs, coeffs):
        built.append(build(hs, coeffs))
        return built[-1]

    monkeypatch.setattr(HomSpace, "morphism_from_coeffs", recording)
    res = generic_rank(alg_b0, ProjDecomp((1, 1, 0)), ProjDecomp((0, 1, 2)), trials=4,
                       seed=3, field=field)
    monkeypatch.undo()
    trials = built[:4]
    ranks = [f.rank() for f in trials]
    assert res.value == max(ranks)
    assert res.witness.map is trials[ranks.index(res.value)]
    for m in res.witness.map.maps.values():
        assert m._rank == echelon_rank(m)


def scan_inputs():
    """All ALG-K pairs in {0,1,2}^2 and every ninth ALG-B0 pair in {0,1,2}^3."""
    for fx, step in (("ALG-K", 1), ("ALG-B0", 9)):
        alg = load_fixture(fx)
        vecs = list(itertools.product(range(3), repeat=alg.quiver.n))
        yield from ((alg, m1, m0) for m1, m0 in
                    itertools.islice(itertools.product(vecs, vecs), 0, None, step))


@pytest.mark.parametrize("field", [QQ, PrimeField(linalg._P)], ids=["Q", "Fp"])
def test_a_scan_eliminates_only_its_trials(monkeypatch, field):
    """The witness of a level is its trial's morphism and a level sum
    memoizes its rank, so the eliminations of a scan are those of its
    trials' morphisms, each distinct morphism ranked once."""
    counts = Counter()

    def counting(name):
        engine = getattr(linalg, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return engine(*args, **kwargs)
        return counted

    for name in ("_packed_rank", "_echelon"):
        monkeypatch.setattr(linalg, name, counting(name))
    t_max, trials, seed = 4, 2, 42
    scanned = trial_runs = 0
    for alg, m1, m0 in scan_inputs():
        p1, p0 = ProjDecomp(m1), ProjDecomp(m0)
        before = sum(counts.values())
        report = additivity_scan(alg, p1, p0, t_max=t_max, trials=trials, seed=seed,
                                 field=field, oracle_max_params=64)
        scanned += sum(counts.values()) - before
        assert report.methods == ["dimension-bound"] * t_max
        # the trials again, on fresh matrices
        master = SeedStream(seed)
        for t in range(1, t_max + 1):
            hs = realize_pair(alg, p1.scale(t), p0.scale(t), field)
            level = SeedStream(master.split(t).seed)
            draws = {tuple(hs.sample_coeffs(level.split(i), presentations.COEFF_BOUND))
                     for i in range(trials)}
            before = sum(counts.values())
            for coeffs in draws:
                hs.morphism_from_coeffs(coeffs).rank()
            trial_runs += sum(counts.values()) - before
    assert scanned == trial_runs > 0


def test_prime_field_coefficients_that_are_fractions(alg_a, alg_k):
    """A Fraction coefficient over F_p is its residue, through either
    assembly branch: one coefficient per cell (ALG-K), or cells with
    multipliers (ALG-A)."""
    f7 = PrimeField(7)
    for alg, p1, p0 in ((alg_k, ProjDecomp((1, 1)), ProjDecomp((1, 1))),
                        (alg_a, ProjDecomp((0, 1, 0)), ProjDecomp((0, 0, 1)))):
        hs = realize_pair(alg, p1, p0, f7)
        halves = [Fraction(k + 1, 2) for k in range(hs.dim)]
        residues = [(k + 1) * 4 % 7 for k in range(hs.dim)]  # 1/2 = 4 in F_7
        want = realize_pair(alg, p1, p0, f7).morphism_from_coeffs(residues)
        assert hs.morphism_from_coeffs(halves).maps == want.maps
        cx = complex_from_coeffs(alg, p1, p0, halves, f7)
        assert cx.map.maps == want.maps and cx.rank() == want.rank() > 0
        with pytest.raises(ZeroDivisionError):
            hs.morphism_from_coeffs([Fraction(1, 7)] * hs.dim)
