import pytest
from hypothesis import given, settings, strategies as st

from taurank.algebra import Ideal
from taurank.fields import DEFAULT_PRIME, QQ, PrimeField, SeedStream
from taurank.fixtures import FIXTURE_NAMES, load_fixture
from taurank.linalg import Matrix
from taurank.presentations import (
    ProjDecomp,
    _assert_minimal,
    complex_from_coeffs,
    random_module,
    realize_pair,
)
from taurank.reps import (
    ProjRealization,
    Representation,
    act_element,
    act_word,
    annihilates,
    annihilator,
    check_relations,
    cokernel,
    conjugate,
    direct_sum,
    dual_rep,
    ext1_dim,
    hom_basis,
    hom_dim,
    identity_morphism,
    image,
    injective,
    injective_envelope,
    iso_test,
    is_faithful,
    is_sincere,
    kernel,
    proj_dim,
    projective,
    projective_cover,
    radical_of,
    simple,
    socle,
    syzygy,
    top,
    zero_morphism,
    zero_rep,
)


def regular_module(alg):
    return direct_sum([projective(alg, i) for i in alg.vertices])


def test_projective_dims_alg_a(alg_a):
    assert projective(alg_a, 1).dims == (1, 0, 0)
    assert projective(alg_a, 2).dims == (3, 1, 0)
    assert projective(alg_a, 3).dims == (3, 3, 1)


def test_injective_dims_alg_b_against_dual_path_oracle(alg_b):
    # oracle: I(i) has the dimension vector of the opposite projective
    op = alg_b.opposite()
    for i in alg_b.vertices:
        assert injective(alg_b, i).dims == op.dims_of_projective(i)
    assert injective(alg_b, 1).dims == (1, 1, 0)
    assert injective(alg_b, 2).dims == (0, 1, 1)
    assert injective(alg_b, 3).dims == (0, 0, 1)


def test_semisimple_p_equals_i_equals_s():
    from taurank.algebra import build_algebra
    from taurank.quiver import Quiver

    alg = build_algebra(Quiver(3, []), [])
    for i in alg.vertices:
        assert projective(alg, i).dims == simple(alg, i).dims
        assert injective(alg, i).dims == simple(alg, i).dims


def test_standard_modules_satisfy_relations(all_fixture_algebras):
    for alg in all_fixture_algebras.values():
        for i in alg.vertices:
            check_relations(projective(alg, i))
            check_relations(injective(alg, i))
            check_relations(simple(alg, i))


def test_direct_sum_dims(alg_a, alg_b):
    s = direct_sum([simple(alg_b, 2), simple(alg_b, 3)])
    assert s.dims == (0, 1, 1)
    p = direct_sum([projective(alg_a, 2)] * 2)
    assert p.dims == (6, 2, 0)
    m = projective(alg_b, 2)
    assert direct_sum([m, zero_rep(alg_b)]).dims == m.dims


def test_hom_dim_examples(alg_a):
    p2, p3 = projective(alg_a, 2), projective(alg_a, 3)
    assert hom_dim(p2, p3) == 3
    assert hom_dim(simple(alg_a, 1), simple(alg_a, 2)) == 0
    # oracle: dim e_3 A e_3 from the path basis
    e3ae3 = sum(1 for b in alg_a.basis if b.source == 3 and b.target == 3)
    assert hom_dim(p3, p3) == e3ae3 == 1


def test_hom_basis_members_intertwine(alg_a):
    p2, p3 = projective(alg_a, 2), projective(alg_a, 3)
    basis = hom_basis(p2, p3)
    assert len(basis) == 3
    for f in basis:
        f.check_intertwines()


def test_hom_projective_identity(all_fixture_algebras):
    # dim Hom(P(i), M) = dim M_i and dim Hom(M, I(i)) = dim M_i
    for alg in all_fixture_algebras.values():
        m = regular_module(alg)
        for i in alg.vertices:
            assert hom_dim(projective(alg, i), m) == m.vertex_dim(i)
            assert hom_dim(m, injective(alg, i)) == m.vertex_dim(i)


def test_rank_of_identity_and_zero(alg_b):
    m = projective(alg_b, 3)
    assert identity_morphism(m).rank() == m.dim_total
    assert zero_morphism(m, m).rank() == 0


def test_kernel_image_cokernel_basics(alg_b):
    m = projective(alg_b, 2)
    n = projective(alg_b, 3)
    idm = identity_morphism(m)
    c, _ = cokernel(idm)
    assert c.is_zero()
    k, _ = kernel(zero_morphism(m, n))
    assert k.dims == m.dims
    im, _ = image(zero_morphism(m, n))
    assert im.is_zero()


def test_kernel_cokernel_split_dims(alg_b):
    for f in hom_basis(projective(alg_b, 2), projective(alg_b, 3)):
        k, _ = kernel(f)
        c, _ = cokernel(f)
        r = f.rank()
        assert k.dim_total == f.source.dim_total - r
        assert c.dim_total == f.target.dim_total - r
        check_relations(k)
        check_relations(c)


def test_top_and_socle(alg_b):
    for i in alg_b.vertices:
        t, _ = top(projective(alg_b, i))
        assert t.dims == simple(alg_b, i).dims
        s, _ = socle(injective(alg_b, i))
        assert s.dims == simple(alg_b, i).dims
        r, _ = radical_of(simple(alg_b, i))
        assert r.is_zero()


def test_projective_cover_of_simple(alg_a):
    for i in alg_a.vertices:
        cover = projective_cover(simple(alg_a, i))
        expected = tuple(1 if v == i else 0 for v in alg_a.vertices)
        assert cover.mults == expected


def test_projective_cover_of_projective_is_iso(alg_a):
    p = projective(alg_a, 3)
    cover = projective_cover(p)
    assert cover.realization.rep.dims == p.dims
    assert cover.epi.rank() == p.dim_total


def test_projective_cover_alg_b_sum(alg_b):
    m = direct_sum([simple(alg_b, 2), simple(alg_b, 3)])
    cover = projective_cover(m)
    assert cover.mults == (0, 1, 1)


def test_cover_epi_reconstructs_top(alg_b):
    m = direct_sum([projective(alg_b, 2), simple(alg_b, 3)])
    cover = projective_cover(m)
    k, _ = kernel(cover.epi)
    rad, _ = radical_of(cover.realization.rep)
    # kernel of a minimal cover sits inside the radical
    assert all(k.vertex_dim(v) <= rad.vertex_dim(v) for v in alg_b.vertices)


def test_injective_envelope(alg_b):
    for i in alg_b.vertices:
        s = simple(alg_b, i)
        env, mono = injective_envelope(s)
        assert env.dims == injective(alg_b, i).dims
        assert mono.rank() == s.dim_total


def test_ext1_projective_vanishes(alg_a):
    p = projective(alg_a, 2)
    for i in alg_a.vertices:
        assert ext1_dim(p, simple(alg_a, i)) == 0


def test_ext1_simple_counts_arrows(alg_b):
    # oracle for a monomial algebra: dim Ext^1(S(i), S(j)) = #arrows i -> j
    arrows = {(a.source, a.target) for a in alg_b.quiver.arrows}
    for i in alg_b.vertices:
        for j in alg_b.vertices:
            expected = 1 if (i, j) in arrows else 0
            assert ext1_dim(simple(alg_b, i), simple(alg_b, j)) == expected


def test_ext1_bilinear_on_sum(alg_b):
    m = direct_sum([simple(alg_b, 2), simple(alg_b, 3)])
    # oracle: bilinearity over the summands, each term an arrow count
    total = sum(
        ext1_dim(simple(alg_b, i), simple(alg_b, j))
        for i in (2, 3)
        for j in (2, 3)
    )
    assert ext1_dim(m, m) == total == 1


def test_ext1_independent_of_cover_presentation(alg_b):
    m = direct_sum([simple(alg_b, 3), simple(alg_b, 2)])
    n = direct_sum([simple(alg_b, 2), simple(alg_b, 3)])
    assert ext1_dim(m, m) == ext1_dim(n, n)
    rng = SeedStream(5)
    assert ext1_dim(conjugate(m, rng), m) == ext1_dim(m, m)


def test_proj_dim_examples(alg_b, alg_c):
    assert proj_dim(projective(alg_b, 3)).value == 0
    m = direct_sum([simple(alg_b, 2), simple(alg_b, 3)])
    res = proj_dim(m)
    assert res.kind == "finite" and res.value == 2
    n = direct_sum([simple(alg_c, 1), simple(alg_c, 2)])
    res = proj_dim(n)
    assert res.kind == "infinite"


def test_proj_dim_syzygy_orbit_alg_c(alg_c):
    # the loop that certifies infinitude: omega S(1) = S(2), omega S(2) = S(1)^2
    s1 = syzygy(simple(alg_c, 1))
    assert s1.dims == simple(alg_c, 2).dims
    s2 = syzygy(simple(alg_c, 2))
    assert s2.dims == (2, 0)


def test_iso_test_basics(alg_b):
    m = projective(alg_b, 2)
    assert iso_test(m, m)
    assert not iso_test(m, projective(alg_b, 3))
    split = direct_sum([simple(alg_b, 1), simple(alg_b, 2)])
    assert split.dims == m.dims
    assert not iso_test(split, m)
    assert iso_test(conjugate(m, SeedStream(3)), m)


def test_sincere_and_faithful(alg_b, alg_b0):
    reg = regular_module(alg_b)
    assert is_sincere(reg)
    assert is_faithful(alg_b, reg)
    m = direct_sum([simple(alg_b, 2), simple(alg_b, 3)])
    assert not is_sincere(m)
    n = direct_sum([projective(alg_b0, 2), injective(alg_b0, 2), simple(alg_b0, 3)])
    assert not is_faithful(alg_b0, n)


def test_annihilator_examples(alg_b, alg_b0):
    # regular module is faithful
    assert annihilator(alg_b, regular_module(alg_b)).is_zero()
    # M = P(2) + I(2) + S(3) over the hereditary algebra: annihilator = (ab)
    m = direct_sum([projective(alg_b0, 2), injective(alg_b0, 2), simple(alg_b0, 3)])
    ann = annihilator(alg_b0, m)
    ab = alg_b0.element_from_terms([(1, ("a", "b"))])
    assert ann == Ideal.from_generators(alg_b0, [ab])
    # S(1) over ALG-B: span{e2, e3, a, b}; oracle = direct action check
    ann_s1 = annihilator(alg_b, simple(alg_b, 1))
    assert ann_s1.dim == 4
    s1 = simple(alg_b, 1)
    for row in ann_s1.rows:
        el = {i: c for i, c in enumerate(row) if c}
        assert act_element(el, s1).is_zero()


def test_annihilator_intersection_of_simples(alg_b):
    anns = [annihilator(alg_b, simple(alg_b, i)) for i in alg_b.vertices]
    inter = anns[0].intersect(anns[1]).intersect(anns[2])
    assert inter == alg_b.radical()


def test_quotient_by_annihilator_is_faithful(alg_b0):
    m = direct_sum([projective(alg_b0, 2), injective(alg_b0, 2), simple(alg_b0, 3)])
    ann = annihilator(alg_b0, m)
    quot, _ = alg_b0.quotient(ann)
    m_b = Representation(quot, m.field, m.dims, m.arrows)
    assert check_relations(m_b)
    assert annihilator(quot, m_b).is_zero()


def test_act_identity_and_idempotents(alg_b):
    m = regular_module(alg_b)
    assert act_element(alg_b.one(), m) == Matrix.identity(QQ, m.dim_total)
    total = sum(
        act_element(alg_b.idempotent(i), m).rank() for i in alg_b.vertices
    )
    assert total == m.dim_total
    ab = alg_b.element_from_terms([(1, ("a", "b"))])
    assert ab == {}  # dead path is already zero in the algebra


def test_act_ab_kills_everything_downstairs(alg_b0, alg_b):
    from taurank.reps import act_word

    # over the hereditary algebra the path ab acts; on any module of the
    # quotient the same word evaluates to zero
    reg0 = regular_module(alg_b0)
    assert not act_word(reg0, ("a", "b")).is_zero()
    regq = regular_module(alg_b)
    assert act_word(regq, ("a", "b")).is_zero()
    assert act_word(direct_sum([injective(alg_b, 1)]), ("a", "b")).is_zero()


def test_dual_rep_involution(alg_b):
    m = projective(alg_b, 3)
    dd = dual_rep(dual_rep(m))
    assert dd.algebra is m.algebra
    assert dd.dims == m.dims
    assert all(dd.arrows[a] == m.arrows[a] for a in m.arrows)


def test_hom_additive_over_direct_sum(alg_b):
    m1, m2 = simple(alg_b, 2), projective(alg_b, 3)
    n = injective(alg_b, 2)
    lhs = hom_dim(direct_sum([m1, m2]), n)
    assert lhs == hom_dim(m1, n) + hom_dim(m2, n)


def test_rank_submultiplicative_under_composition(alg_b):
    p2, p3 = projective(alg_b, 2), projective(alg_b, 3)
    fs = hom_basis(p2, p3)
    gs = hom_basis(p3, p3)
    for f in fs:
        for g in gs:
            comp = g.compose(f)
            assert comp.rank() <= min(f.rank(), g.rank())


def test_cover_composed_with_radical_gives_top(alg_b):
    m = direct_sum([projective(alg_b, 3), simple(alg_b, 2)])
    cover = projective_cover(m)
    rad, incl = radical_of(cover.realization.rep)
    composite = cover.epi.compose(incl)  # rad P0 -> M hits rad M
    q, _ = cokernel(composite)
    t, _ = top(m)
    assert iso_test(q, t)


# -- the cover against its construction from top M ------------------------------


def cover_from_top(m):
    """(mults, epi maps) of the cover built from the module top M: the
    generators at v are the unit vectors at the pivot columns of the
    projection M_v -> top_v, and the epi applies each basis path to them."""
    alg, fl = m.algebra, m.field
    t, proj = top(m)
    mults = tuple(t.vertex_dim(v) for v in alg.quiver.vertices)
    gens = [p for v in alg.quiver.vertices if t.vertex_dim(v) for p in proj.maps[v].rref()[1]]
    real = ProjRealization(alg, mults, fl)
    maps = {v: Matrix.zeros(fl, m.vertex_dim(v), real.rep.vertex_dim(v))
            for v in alg.quiver.vertices}
    for s, ((i, _), p) in enumerate(zip(real.summands, gens)):
        unit = [fl.one if j == p else fl.zero for j in range(m.vertex_dim(i))]
        for v in alg.quiver.vertices:
            for col, k in enumerate(alg.paths(i, v), real.offsets[s][v]):
                b = alg.basis[k]
                for r, x in enumerate(act_word(m, b.word, b.source).apply(unit)):
                    maps[v].rows[r][col] = x
    return mults, maps


def assert_cover_matches_top(m):
    cover = projective_cover(m)
    mults, maps = cover_from_top(m)
    assert cover.mults == mults
    assert cover.epi.maps == maps


def standard_modules(alg, field):
    singles = [make(alg, i, field) for make in (simple, projective, injective)
               for i in alg.vertices]
    pairs = [direct_sum([a, b]) for n, a in enumerate(singles) for b in singles[n:]]
    return singles + pairs


@pytest.mark.parametrize("field", [QQ, PrimeField(DEFAULT_PRIME)], ids=["Q", "Fp"])
def test_cover_matches_top_on_standard_modules_and_duals(all_fixture_algebras, field):
    for alg in all_fixture_algebras.values():
        for m in standard_modules(alg, field):
            assert_cover_matches_top(m)
            # the injective-envelope path covers D M over the opposite algebra
            assert_cover_matches_top(dual_rep(m))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FIXTURE_NAMES), st.booleans(), st.integers(0, 10**6))
def test_cover_matches_top_on_random_modules(fixture, prime, seed):
    field = PrimeField(DEFAULT_PRIME) if prime else QQ
    m = random_module(load_fixture(fixture), SeedStream(seed), field=field)
    assert_cover_matches_top(m)
    assert_cover_matches_top(dual_rep(m))


def test_assert_minimal_rejects_identity_on_a_projective(all_fixture_algebras):
    for alg in all_fixture_algebras.values():
        for i in alg.vertices:
            p = ProjDecomp(tuple(int(v == i) for v in alg.quiver.vertices))
            hs = realize_pair(alg, p, p)
            e_i = alg.idempotent_index[i]
            cx = complex_from_coeffs(alg, p, p, [int(x == e_i) for _, _, x in hs.items], hom=hs)
            m, _ = cokernel(cx.map)
            assert m.is_zero()
            with pytest.raises(AssertionError, match="does not land in rad P0"):
                _assert_minimal(cx, m)


def _line(x):
    return Matrix(QQ, [[x]], 1)


def test_check_relations_rejects_a_violated_relation(alg_b):
    # a*b = 0 in ALG-B, but here a and b both act as 1
    m = Representation(alg_b, QQ, (1, 1, 1), {"a": _line(1), "b": _line(1)})
    with pytest.raises(AssertionError, match="violates a defining relation"):
        check_relations(m)


def test_check_relations_checks_every_parent_ideal(alg_b0):
    # B0 / (b) / (a): M below is killed by a but not by b, so it fails the
    # ideal of the first quotient, one level up from the algebra it lives on
    b = Ideal.from_generators(alg_b0, [alg_b0.arrow_element("b")])
    q1, _ = alg_b0.quotient(b)
    q2, _ = q1.quotient(Ideal.from_generators(q1, [q1.arrow_element("a")]))
    arrows = {"a": _line(0), "b": _line(1)}
    m = Representation(q2, QQ, (1, 1, 1), arrows)
    assert annihilates(q2.parent_ideal, Representation(q1, QQ, m.dims, arrows))
    assert not annihilates(b, Representation(alg_b0, QQ, m.dims, arrows))
    with pytest.raises(AssertionError, match="not annihilated by the ideal"):
        check_relations(m)
    arrows["b"] = _line(0)
    assert check_relations(Representation(q2, QQ, (1, 1, 1), arrows))


def test_reduce_rejects_an_ideal_that_does_not_annihilate(alg_b0):
    from taurank.artheory import reduce_and_compare

    m = direct_sum([projective(alg_b0, 2), injective(alg_b0, 2), simple(alg_b0, 3)])
    ab = Ideal.from_generators(alg_b0, [alg_b0.element_from_terms([(1, ("a", "b"))])])
    assert annihilates(ab, m)
    a = Ideal.from_generators(alg_b0, [alg_b0.arrow_element("a")])
    assert not annihilates(a, m)
    with pytest.raises(ValueError, match="^ideal does not annihilate the module$"):
        reduce_and_compare(alg_b0, m, ideal=a)


def test_reduce_rejects_the_zero_module(alg_a):
    from taurank.artheory import reduce_and_compare

    zero = Representation(alg_a, QQ, (0, 0, 0), {})
    whole = Ideal.from_generators(alg_a, [alg_a.idempotent(i) for i in alg_a.vertices])
    for ideal in (None, whole):
        with pytest.raises(ValueError, match="the module is zero"):
            reduce_and_compare(alg_a, zero, ideal=ideal)


def test_check_relations_rejects_a_violated_relation_of_the_opposite(alg_b):
    # ALG-B^op has the reversed relation b*a = 0; a and b both act as 1
    op = alg_b.opposite()
    assert [(r.terms, r.source, r.target) for r in op.relations] == [
        (((1, ("b", "a")),), 1, 3)
    ]
    m = Representation(op, QQ, (1, 1, 1), {"a": _line(1), "b": _line(1)})
    assert not act_word(m, ("b", "a")).is_zero()
    with pytest.raises(AssertionError, match="violates a defining relation"):
        check_relations(m)


def test_duals_of_standard_modules_satisfy_the_opposite_relations(all_fixture_algebras):
    for alg in all_fixture_algebras.values():
        for i in alg.vertices:
            for m in (simple(alg, i), projective(alg, i), injective(alg, i)):
                d = dual_rep(m)
                assert d.algebra is alg.opposite()
                assert check_relations(d)


def test_check_relations_checks_the_ideal_of_an_opposite_quotient(alg_b0):
    # (B0 / (b))^op = B0^op / (b): b must act as zero there
    q, _ = alg_b0.quotient(Ideal.from_generators(alg_b0, [alg_b0.arrow_element("b")]))
    op = q.opposite()
    assert op.parent is alg_b0.opposite() and op.opposite() is q
    m = Representation(op, QQ, (1, 1, 1), {"a": _line(0), "b": _line(1)})
    with pytest.raises(AssertionError, match="not annihilated by the ideal"):
        check_relations(m)
    assert check_relations(Representation(op, QQ, (1, 1, 1), {"a": _line(1), "b": _line(0)}))
    for i in q.vertices:
        assert check_relations(dual_rep(projective(q, i)))
