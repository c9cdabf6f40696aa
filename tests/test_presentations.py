from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from taurank.artheory import tau
from taurank.fields import DEFAULT_PRIME, QQ, PrimeField, SeedStream
from taurank.fixtures import FIXTURE_NAMES, load_fixture
from taurank.polyrank import OracleBudgetError, Poly, PolyMatrix, poly_rank
from taurank.presentations import (
    ProjDecomp,
    additivity_scan,
    combine_complexes,
    complex_from_coeffs,
    cover_upper_bound,
    direct_sum_complex,
    generic_rank,
    min_presentation,
    random_module,
    random_presentation,
    realize_pair,
    reduce_presentation,
    zero_complex,
)
from taurank.reps import (
    ProjRealization,
    cokernel,
    conjugate,
    direct_sum,
    hom_dim,
    iso_test,
    projective,
    simple,
    zero_rep,
)


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
    pm = PolyMatrix.zeros(50, 50, 1)
    with pytest.raises(OracleBudgetError):
        poly_rank(pm, max_dim=40)


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
    assert cx.is_zero_complex()
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
    assert alg_b0.hom_tables == tables


def test_direct_sum_complex(alg_a):
    f = f_lambda(alg_a, (1, 0, 0))
    assert direct_sum_complex(f, 1) is f
    d2 = direct_sum_complex(f, 2)
    assert d2.rank() == 6
    assert d2.p1 == ProjDecomp((0, 2, 0))
    z = zero_complex(alg_a)
    assert direct_sum_complex(z, 3).rank() == 0


def test_reduce_presentation_identity_complex(alg_b):
    hs = realize_pair(alg_b, ProjDecomp((0, 0, 1)), ProjDecomp((0, 0, 1)))
    coeffs = [QQ.one if alg_b.basis[x].length == 0 else QQ.zero
              for (_, _, x) in hs.items]
    cx = complex_from_coeffs(alg_b, ProjDecomp((0, 0, 1)), ProjDecomp((0, 0, 1)),
                             coeffs, hom=hs)
    c_min, dim_id, zero_part = reduce_presentation(cx)
    assert c_min.is_zero_complex()
    assert dim_id == sum(alg_b.dims_of_projective(3))
    assert zero_part.is_zero()


def test_reduce_presentation_zero_map(alg_b):
    p1 = ProjDecomp((1, 0, 0))
    cx = complex_from_coeffs(alg_b, p1, ProjDecomp((0, 0, 0)), [])
    c_min, dim_id, zero_part = reduce_presentation(cx)
    assert c_min.is_zero_complex()
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
            assert all(type(x) is Fraction for row in rq.rep.arrows[a.name].rows for x in row)
            assert all(type(x) is int for row in rp.rep.arrows[a.name].rows for x in row)
        for field, first in ((QQ, rq), (PrimeField(101), rp)):
            again = ProjRealization(alg, mults, field)
            assert again.rep == first.rep and again.offsets == first.offsets


def test_shared_realizations_survive_their_callers(alg_a, alg_b):
    """Scans, presentations and tau reuse cached realization reps and
    offsets; none of them may alter one, so each still equals a fresh
    direct sum laid out by the algebra's paths."""
    additivity_scan(alg_a, ProjDecomp((1, 1, 0)), ProjDecomp((0, 1, 1)), t_max=2, trials=2)
    m = random_module(alg_b, SeedStream(5))
    reduce_presentation(min_presentation(m))
    tau(m)
    for alg in (alg_a, alg_b, alg_a.opposite(), alg_b.opposite()):
        for (mults, _), (rep, offsets) in alg.realization_cache.items():
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
