import json

import pytest
from hypothesis import given, settings, strategies as st

from taurank.algebra import Ideal, NotDefinedOverField, build_algebra
from taurank.artheory import e_invariant, ext1_dim, nakayama_complex
from taurank.fields import DEFAULT_PRIME, QQ, PrimeField, SeedStream
from taurank.fixtures import FIXTURE_NAMES, load_fixture
from taurank.io import load_module_file, module_from_dict
from taurank.linalg import Matrix
from taurank.presentations import (
    ProjDecomp,
    TwoComplex,
    _assert_minimal,
    complex_from_coeffs,
    min_presentation,
    random_module,
    random_presentation,
    realize_pair,
)
from taurank.quiver import parse_quiver_file
from taurank.reps import (
    Morphism,
    ProjRealization,
    Representation,
    _hom_rows,
    act_element,
    act_word,
    annihilates,
    annihilator,
    check_relations,
    cokernel,
    direct_sum,
    dual_rep,
    hom_basis,
    hom_dim,
    injective,
    injective_envelope_mults,
    iso_test,
    kernel,
    proj_dim,
    projective,
    projective_cover,
    simple,
    syzygy,
    zero_rep,
)

from helpers import (check_intertwines, conjugate, dense_hom_dim, quotient, radical_of,
                     reference_cokernel, reference_kernel, reference_lands_in_radical,
                     reference_top, top)


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


def test_direct_sum_rejects_summands_over_another_base(alg_a, alg_b):
    with pytest.raises(ValueError, match="different algebras"):
        direct_sum([simple(alg_a, 1), simple(alg_b, 1)])
    with pytest.raises(ValueError, match=r"different fields \(Q, F_7\)"):
        direct_sum([simple(alg_a, 1), simple(alg_a, 2, PrimeField(7))])
    # a quotient shares its parent's quiver, as in Hom
    quot = alg_b.quotient(Ideal(alg_b, [alg_b.arrow_element("a")]))
    assert direct_sum([simple(alg_b, 1), simple(quot, 2)]).dims == (1, 1, 0)
    # the same quiver under other relations is not a common root
    from taurank.algebra import build_algebra

    path_alg = build_algebra(alg_b.quiver, [])
    with pytest.raises(ValueError, match="no common root"):
        direct_sum([simple(alg_b, 1), simple(path_alg, 2)])


def test_direct_sum_over_a_quotient_and_its_parent_is_over_the_parent(alg_b0):
    # S(3) lives over A/ann S(3), P(3) only over A, so the sum is over A
    # whichever summand comes first
    ann = annihilator(simple(alg_b0, 3))
    s3 = Representation(alg_b0.quotient(ann), QQ, (0, 0, 1), {})
    p3 = projective(alg_b0, 3)
    for summands in ([s3, p3], [p3, s3]):
        m = direct_sum(summands)
        assert m.algebra is alg_b0
        assert check_relations(m)
    quot = s3.algebra
    assert direct_sum([s3, s3]).algebra is quot
    assert direct_sum([simple(alg_b0, 1), simple(quot, 3)]).algebra is alg_b0


def test_hom_dim_examples(alg_a):
    p2, p3 = projective(alg_a, 2), projective(alg_a, 3)
    assert hom_dim(p2, p3) == 3
    assert hom_dim(simple(alg_a, 1), simple(alg_a, 2)) == 0
    # oracle: dim e_3 A e_3 from the path basis
    e3ae3 = sum(1 for b in alg_a.basis if b.source == 3 and b.target == 3)
    assert hom_dim(p3, p3) == e3ae3 == 1


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FIXTURE_NAMES), st.sampled_from([0, 7, DEFAULT_PRIME]),
       st.integers(0, 10**6))
def test_sparse_hom_dim_matches_the_dense_system(fixture, p, seed):
    field = PrimeField(p) if p else QQ
    alg, rng = load_fixture(fixture), SeedStream(seed)
    m, n = (random_module(alg, rng.split(k), field=field) for k in (0, 1))
    for a, b in ((m, n), (n, m), (m, m)):
        basis = hom_basis(a, b)
        assert hom_dim(a, b) == len(basis) == dense_hom_dim(a, b)
        for f in basis:
            check_intertwines(f)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_hom_on_a_loop_whose_two_terms_cancel(field):
    # on k[x]/(x^2), the constraint F M_x = M_x F at cell (r, r) has the
    # unknown F[r][r] from both sides with M_x[r][r] - M_x[r][r] = 0
    alg = build_algebra(*parse_quiver_file("vertices: 1\narrow x: 1 -> 1\nrelations:\nx*x\n"))
    m = Representation(alg, field, (2,), {"x": Matrix(field, [[1, 1], [-1, -1]])})
    check_relations(m)
    rows, _, _ = _hom_rows(m, m)
    assert all(all(row.values()) for row in rows)
    assert 0 not in rows[0] and 3 not in rows[-1]  # F[r][r] at cell (r, r)
    basis = hom_basis(m, m)
    assert hom_dim(m, m) == len(basis) == dense_hom_dim(m, m) == 2
    for f in basis:
        check_intertwines(f)


def test_hom_at_the_module_size_cap(alg_a):
    # S(2)^15 is the slowest fixture module at the cap; Hom(M, tau M) has
    # 1800 unknowns, and ranking its dense system took about 10 s
    m = direct_sum([simple(alg_a, 2)] * 15)
    assert hom_dim(m, m) == 225
    assert e_invariant(m) == 0


def test_hom_rejects_modules_over_different_algebras_or_fields(alg_a, alg_k):
    a1, k1 = projective(alg_a, 1), projective(alg_k, 1)
    f7 = simple(alg_a, 1, PrimeField(7))
    for m, n, what in ((a1, k1, "algebras"), (k1, a1, "algebras"),
                       (simple(alg_a, 1), f7, "fields"), (f7, simple(alg_a, 1), "fields")):
        for hom in (hom_dim, hom_basis):
            with pytest.raises(ValueError, match=f"different {what}"):
                hom(m, n)
    # one prime is one field, whichever object names it
    assert hom_dim(f7, simple(alg_a, 1, PrimeField(7))) == 1


def test_module_equality_compares_the_field(alg_k):
    assert simple(alg_k, 1) != simple(alg_k, 1, PrimeField(7))
    assert simple(alg_k, 1, PrimeField(7)) != simple(alg_k, 1, PrimeField(11))
    # one prime is one field, whichever object names it
    assert simple(alg_k, 1, PrimeField(7)) == simple(alg_k, 1, PrimeField(7))
    assert projective(alg_k, 2) == projective(alg_k, 2, QQ)


def test_injective_is_the_dual_of_the_cached_opposite_projective(all_fixture_algebras):
    for alg in all_fixture_algebras.values():
        for field in (QQ, PrimeField(7)):
            for i in alg.vertices:
                inj = injective(alg, i, field)
                assert inj == dual_rep(projective(alg.opposite(), i, field))
                assert inj.algebra is alg and inj.field.name == field.name
    with pytest.raises(ValueError, match="no injective"):
        injective(alg, 0)


def test_hom_basis_members_intertwine(alg_a):
    p2, p3 = projective(alg_a, 2), projective(alg_a, 3)
    basis = hom_basis(p2, p3)
    assert len(basis) == 3
    for f in basis:
        check_intertwines(f)


def test_hom_projective_identity(all_fixture_algebras):
    # dim Hom(P(i), M) = dim M_i and dim Hom(M, I(i)) = dim M_i
    for alg in all_fixture_algebras.values():
        m = regular_module(alg)
        for i in alg.vertices:
            assert hom_dim(projective(alg, i), m) == m.vertex_dim(i)
            assert hom_dim(m, injective(alg, i)) == m.vertex_dim(i)


def identity(m):
    return Morphism(m, m, {v: Matrix.identity(m.field, m.vertex_dim(v))
                           for v in m.algebra.quiver.vertices})


def zero(m, n):
    return Morphism(m, n, {v: Matrix.zeros(m.field, n.vertex_dim(v), m.vertex_dim(v))
                           for v in m.algebra.quiver.vertices})


def test_rank_of_identity_and_zero(alg_b):
    m = projective(alg_b, 3)
    assert identity(m).rank() == m.dim_total
    assert zero(m, m).rank() == 0


def test_morphism_needs_a_map_of_the_right_shape_at_every_vertex(alg_b):
    m = projective(alg_b, 3)
    maps = dict(identity(m).maps)
    del maps[2]
    with pytest.raises(ValueError, match="vertex 2 has no map"):
        Morphism(m, m, maps)
    maps[2] = Matrix.zeros(QQ, m.vertex_dim(2) + 1, m.vertex_dim(2))
    with pytest.raises(ValueError, match="vertex 2 map has wrong shape"):
        Morphism(m, m, maps)


def test_compose_needs_one_middle_module(alg_b):
    m = direct_sum([simple(alg_b, 1), simple(alg_b, 2)])
    p = projective(alg_b, 2)
    assert p.dims == m.dims
    # the vertex maps compose, but not into a morphism P(2) -> M
    with pytest.raises(ValueError, match="different modules"):
        identity(m).compose(identity(p))
    twin = direct_sum([simple(alg_b, 1), simple(alg_b, 2)])
    check_intertwines(identity(m).compose(identity(twin)))


def test_kernel_image_cokernel_basics(alg_b):
    m = projective(alg_b, 2)
    n = projective(alg_b, 3)
    c, _ = cokernel(identity(m))
    assert c.is_zero()
    k, _ = kernel(zero(m, n))
    assert k.dims == m.dims
    assert zero(m, n).rank() == 0  # the image is zero


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
        # soc I(i) = S(i): S(j) maps into I(i) only for j = i, once
        assert [hom_dim(simple(alg_b, j), injective(alg_b, i))
                for j in alg_b.vertices] == list(simple(alg_b, i).dims)
        r, _ = radical_of(simple(alg_b, i))
        assert r.is_zero()


def test_projective_cover_of_simple(alg_a):
    for i in alg_a.vertices:
        cover = projective_cover(simple(alg_a, i))
        expected = tuple(1 if v == i else 0 for v in alg_a.vertices)
        assert cover.realization.mults == expected


def test_projective_cover_of_projective_is_iso(alg_a):
    p = projective(alg_a, 3)
    cover = projective_cover(p)
    assert cover.realization.rep.dims == p.dims
    assert cover.epi.rank() == p.dim_total


def test_projective_cover_alg_b_sum(alg_b):
    m = direct_sum([simple(alg_b, 2), simple(alg_b, 3)])
    cover = projective_cover(m)
    assert cover.realization.mults == (0, 1, 1)


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
        env, mono, _ = injective_envelope_mults(s)
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
    assert all(reg.dims)
    assert annihilator(reg).dim == 0
    m = direct_sum([simple(alg_b, 2), simple(alg_b, 3)])
    assert not all(m.dims)
    n = direct_sum([projective(alg_b0, 2), injective(alg_b0, 2), simple(alg_b0, 3)])
    assert annihilator(n).dim != 0


def test_annihilator_examples(alg_b, alg_b0):
    # regular module is faithful
    assert annihilator(regular_module(alg_b)).dim == 0
    # M = P(2) + I(2) + S(3) over the hereditary algebra: annihilator = (ab)
    m = direct_sum([projective(alg_b0, 2), injective(alg_b0, 2), simple(alg_b0, 3)])
    ann = annihilator(m)
    ab = alg_b0.element_from_terms([(1, ("a", "b"))])
    assert ann == Ideal(alg_b0, [ab])
    # S(1) over ALG-B: span{e2, e3, a, b}; oracle = direct action check
    ann_s1 = annihilator(simple(alg_b, 1))
    assert ann_s1.dim == 4
    s1 = simple(alg_b, 1)
    for row in ann_s1.rows:
        assert act_element(row, s1).is_zero()


def test_annihilator_intersection_of_simples(alg_b):
    # the annihilator of a sum is the intersection of the summands' ones
    simples = direct_sum([simple(alg_b, i) for i in alg_b.vertices])
    assert annihilator(simples) == alg_b.radical()


def test_quotient_by_annihilator_is_faithful(alg_b0):
    m = direct_sum([projective(alg_b0, 2), injective(alg_b0, 2), simple(alg_b0, 3)])
    ann = annihilator(m)
    quot = alg_b0.quotient(ann)
    m_b = Representation(quot, m.field, m.dims, m.arrows)
    assert check_relations(m_b)
    assert annihilator(m_b).dim == 0


def test_act_identity_and_idempotents(alg_b):
    m = regular_module(alg_b)
    one = {k: 1 for k in alg_b.idempotent_index.values()}
    assert act_element(one, m) == Matrix.identity(QQ, m.dim_total)
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
        d = m.vertex_dim(i)
        unit = Matrix.from_columns(fl, [[fl.one if j == p else fl.zero for j in range(d)]], d)
        for v in alg.quiver.vertices:
            for col, k in enumerate(alg.paths(i, v), real.offsets[s][v]):
                b = alg.basis[k]
                for r, (x,) in enumerate((act_word(m, b.word, b.source) * unit).rows):
                    maps[v].rows[r][col] = x
    return mults, maps


def assert_cover_matches_top(m):
    cover = projective_cover(m)
    mults, maps = cover_from_top(m)
    assert cover.realization.mults == mults
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
            cx = complex_from_coeffs(alg, p, p, [int(x == e_i) for _, _, x in hs.items])
            m, _ = cokernel(cx.map)
            assert m.is_zero()
            with pytest.raises(AssertionError, match="does not land in rad P0"):
                _assert_minimal(cx, m)


# -- sub- and quotient modules against their references -------------------------


def assert_same(got, want):
    """Two (module, map) pairs with equal dims, arrow matrices and maps."""
    (q, f), (q_ref, f_ref) = got, want
    assert q.dims == q_ref.dims
    assert q.arrows == q_ref.arrows
    assert f.maps == f_ref.maps


def rejected_as_leaving_rad(cx, m):
    """Whether `_assert_minimal` finds that cx leaves rad P0."""
    try:
        _assert_minimal(cx, m)
    except AssertionError as exc:
        return "does not land in rad P0" in str(exc)
    return False


@pytest.mark.parametrize("field", [QQ, PrimeField(DEFAULT_PRIME)], ids=["Q", "Fp"])
@pytest.mark.parametrize("fixture", FIXTURE_NAMES)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_sub_and_quotient_modules_match_their_references(fixture, field, seed):
    alg = load_fixture(fixture)
    m = random_module(alg, SeedStream(seed), field=field)
    epi = projective_cover(m).epi
    cx = min_presentation(m)
    _, mono, _ = injective_envelope_mults(m)
    assert_same(kernel(epi), reference_kernel(epi))
    assert_same(cokernel(cx.map), reference_cokernel(cx.map))
    assert_same(cokernel(mono), reference_cokernel(mono))
    assert_same(top(m), reference_top(m))
    if not cx.p1.is_zero():
        nu = nakayama_complex(cx)
        assert_same(kernel(nu), reference_kernel(nu))
    assert reference_lands_in_radical(cx.map)
    assert not rejected_as_leaving_rad(cx, m)
    # a random endomorphism of P0 leaves rad P0 exactly when an item e_i
    # from a summand of type i to another has a nonzero coefficient
    hs = realize_pair(alg, cx.p0, cx.p0, field)
    tops = [k for k, (_, _, x) in enumerate(hs.items) if x in alg.idempotent_index.values()]
    coeffs = hs.sample_coeffs(SeedStream(seed), 3)
    for leaves in (False, True):
        for k in tops:
            coeffs[k] = 0
        if leaves:
            coeffs[tops[seed % len(tops)]] = 1
        g = TwoComplex(hs, hs.morphism_from_coeffs(coeffs))
        assert reference_lands_in_radical(g.map) is not leaves
        assert rejected_as_leaving_rad(g, m) is leaves


THREE_FIELDS = [QQ, PrimeField(7), PrimeField(DEFAULT_PRIME)]


def assert_kernel_and_cokernel_match_their_references(f):
    """kernel against `reference_kernel`; cokernel, which dualizes a
    kernel, against the direct `quotient` and `reference_cokernel`."""
    assert_same(kernel(f), reference_kernel(f))
    got = cokernel(f)
    assert_same(got, quotient(f.target, f.maps))
    assert_same(got, reference_cokernel(f))


@pytest.mark.parametrize("field", THREE_FIELDS, ids=["Q", "F7", "Fp"])
@pytest.mark.parametrize("fixture", FIXTURE_NAMES)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_kernels_and_cokernels_of_library_maps_match_their_references(fixture, field, seed):
    # kernel and cokernel trust their morphisms, so every map the library
    # hands them is checked to intertwine here: a random presentation, and
    # the cover epi, minimal presentation, Nakayama map and envelope mono
    # of its cokernel, which may be zero or vanish at some vertices
    cx = random_presentation(load_fixture(fixture), SeedStream(seed), field=field)
    m, _ = cokernel(cx.map)
    pres = min_presentation(m)
    maps = [cx.map, projective_cover(m).epi, pres.map, nakayama_complex(pres),
            injective_envelope_mults(m)[1]]
    for f in maps:
        check_intertwines(f)
        assert_kernel_and_cokernel_match_their_references(f)


@pytest.mark.parametrize("field", THREE_FIELDS, ids=["Q", "F7", "Fp"])
def test_kernels_and_cokernels_of_zero_and_identity_maps(all_fixture_algebras, field):
    for alg in all_fixture_algebras.values():
        none = zero_rep(alg, field)
        for m in [none] + [projective(alg, i, field) for i in alg.vertices]:
            for f in (identity(m), zero(m, none), zero(none, m)):
                assert_kernel_and_cokernel_match_their_references(f)
            assert cokernel(identity(m))[0].is_zero() and kernel(identity(m))[0].is_zero()
            assert cokernel(zero(m, none))[0].is_zero() and kernel(zero(none, m))[0].is_zero()
            assert kernel(zero(m, none))[0] == m == cokernel(zero(none, m))[0]


@pytest.mark.parametrize("p", [2, 7, DEFAULT_PRIME])
def test_kernels_cokernels_and_covers_hold_reduced_cells(all_fixture_algebras, p):
    """Kernels, cokernels and covers adopt cells that are finished already
    (kernel vectors, rows and actions of existing matrices) instead of
    reducing them again: every cell stays an int in [0, p), and each
    matrix equals the one the reducing constructor builds from its rows."""
    field = PrimeField(p)

    def assert_reduced(*matrices):
        for mat in matrices:
            assert all(type(x) is int and 0 <= x < p for row in mat.rows for x in row)
            assert mat == Matrix(field, mat.rows, mat.ncols)

    for k, alg in enumerate(all_fixture_algebras.values()):
        for seed in range(6):
            cx = random_presentation(alg, SeedStream(100 * k + seed), field=field)
            m, proj = cokernel(cx.map)
            cover = projective_cover(m)
            for made in (kernel(cx.map), (m, proj), kernel(cover.epi)):
                assert_reduced(*made[0].arrows.values(), *made[1].maps.values())
                check_intertwines(made[1])
            assert_reduced(*cover.epi.maps.values())


def _line(x):
    return Matrix(QQ, [[x]], 1)


def test_check_relations_rejects_a_violated_relation(alg_b):
    # a*b = 0 in ALG-B, but here a and b both act as 1
    m = Representation(alg_b, QQ, (1, 1, 1), {"a": _line(1), "b": _line(1)})
    with pytest.raises(AssertionError, match="violates a defining relation"):
        check_relations(m)


# a cokernel module of ALG-A: a2*b3 and a3*b2 both act as 1, so the
# relation a2*b3 - a3*b2 holds only through its minus sign
ALG_A_COKERNEL = {"dim": [1, 2, 1], "arrows": {
    "a1": [[0, 0]], "a2": [[0, 1]], "a3": [[1, 0]], "b1": [[0], [0]], "b2": [[1], [0]],
    "b3": [[0], [1]]}}


def test_check_relations_reads_the_sign_of_a_coefficient(alg_a):
    for field in (QQ, PrimeField(7), PrimeField(2)):
        assert check_relations(module_from_dict(alg_a, ALG_A_COKERNEL, field))
    flipped = {"dim": ALG_A_COKERNEL["dim"], "arrows": {**ALG_A_COKERNEL["arrows"],
                                                         "a3": [[-1, 0]]}}
    for field in (QQ, PrimeField(7)):
        with pytest.raises(AssertionError, match="violates a defining relation"):
            module_from_dict(alg_a, flipped, field)
    # 2 = 0 in F_2
    assert check_relations(module_from_dict(alg_a, flipped, PrimeField(2)))


def test_check_relations_reads_a_fractional_coefficient():
    # a*b - 1/2 c*d holds when c acts as 2 and a, b and d act as 1
    alg = build_algebra(*parse_quiver_file(
        "vertices: 1 2 3\narrow a: 2 -> 1\narrow b: 3 -> 2\narrow c: 2 -> 1\n"
        "arrow d: 3 -> 2\nrelations:\na*b - 1/2 c*d\n"))

    def module(c, field):
        arrows = {"a": [[1]], "b": [[1]], "c": [[c]], "d": [[1]]}
        return module_from_dict(alg, {"dim": [1, 1, 1], "arrows": arrows}, field)

    for field in (QQ, PrimeField(7)):
        assert check_relations(module(2, field))
        with pytest.raises(AssertionError, match="violates a defining relation"):
            module(1, field)


def test_check_relations_checks_every_parent_ideal(alg_b0):
    # B0 / (b) / (a): M below is killed by a but not by b, so it fails the
    # ideal of the first quotient, one level up from the algebra it lives on
    b = Ideal(alg_b0, [alg_b0.arrow_element("b")])
    q1 = alg_b0.quotient(b)
    q2 = q1.quotient(Ideal(q1, [q1.arrow_element("a")]))
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
    ab = Ideal(alg_b0, [alg_b0.element_from_terms([(1, ("a", "b"))])])
    assert annihilates(ab, m)
    a = Ideal(alg_b0, [alg_b0.arrow_element("a")])
    assert not annihilates(a, m)
    with pytest.raises(ValueError, match="^ideal does not annihilate the module$"):
        reduce_and_compare(m, ideal=a)


def test_reduce_rejects_the_zero_module(alg_a):
    from taurank.artheory import reduce_and_compare

    zero = Representation(alg_a, QQ, (0, 0, 0), {})
    whole = Ideal(alg_a, [alg_a.idempotent(i) for i in alg_a.vertices])
    for ideal in (None, whole):
        with pytest.raises(ValueError, match="the module is zero"):
            reduce_and_compare(zero, ideal=ideal)


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
    q = alg_b0.quotient(Ideal(alg_b0, [alg_b0.arrow_element("b")]))
    op = q.opposite()
    assert op.parent is alg_b0.opposite() and op.opposite() is q
    m = Representation(op, QQ, (1, 1, 1), {"a": _line(0), "b": _line(1)})
    with pytest.raises(AssertionError, match="not annihilated by the ideal"):
        check_relations(m)
    assert check_relations(Representation(op, QQ, (1, 1, 1), {"a": _line(1), "b": _line(0)}))
    for i in q.vertices:
        assert check_relations(dual_rep(projective(q, i)))


# two parallel paths 3 -> 2 -> 1
TWO_PATHS = ("vertices: 1 2 3\narrow a: 2 -> 1\narrow b: 3 -> 2\narrow c: 2 -> 1\n"
             "arrow d: 3 -> 2\nrelations:\n")


def test_an_algebra_refuses_a_prime_field_it_is_not_defined_over(tmp_path):
    """a*b - 7 c*d has the structure constant 1/7 and a*b - 1/7 c*d the
    relation coefficient -1/7: both are defined over Q and F_11, not over
    F_7, and every first pairing with F_7 raises NotDefinedOverField."""
    seven, seventh = (build_algebra(*parse_quiver_file(TWO_PATHS + rel + "\n"))
                      for rel in ("a*b - 7 c*d", "a*b - 1/7 c*d"))
    f7 = PrimeField(7)
    path = tmp_path / "s3.mod.json"
    path.write_text(json.dumps({"dim": [0, 0, 1], "arrows": {}}))
    for alg in (seven, seventh):
        for field in (QQ, PrimeField(11)):
            s3 = simple(alg, 3, field)
            assert load_module_file(alg, str(path), field) == s3
            assert hom_dim(s3, s3) == 1 and projective(alg, 3, field).dims == (3, 2, 1)
        for build in (lambda: projective(alg, 3, f7), lambda: simple(alg, 3, f7),
                      lambda: load_module_file(alg, str(path), f7),
                      lambda: ProjRealization(alg, (0, 1, 1), f7)):
            with pytest.raises(NotDefinedOverField, match="not defined over F_7"):
                build()
        assert not any(name == "F_7" for _, name in alg.realization_cache)
